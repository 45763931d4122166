package explore

import (
	"fmt"
	"testing"

	"reclose/internal/interp"
	"reclose/internal/obs"
	"reclose/internal/progs"
)

// TestMetricsDynamicPOR checks the dynamic-POR instrumentation: the
// por.* registry counters equal the merged report counters across
// sequential and parallel drivers, and the backtrack counter actually
// moves on a workload where dynamic POR bites.
func TestMetricsDynamicPOR(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(4))
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := obs.New()
			// The shallow SpillDepth keeps most of the parallel search
			// below the publication-seal horizon: entries at spillable
			// depths are statically expanded (soundness rule 1), so with
			// the default horizon this workload's entire 16-level tree
			// would degenerate to static and insert no backtracks.
			rep, err := Explore(closed, Options{
				POR:          PORDynamic,
				Workers:      workers,
				SpillDepth:   4,
				Obs:          reg,
				MaxIncidents: 1 << 20,
			})
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			checkRegistryMatches(t, reg, rep)
			if rep.PorBacktracks == 0 {
				t.Error("dynamic POR inserted no backtrack points on the philosophers ring")
			}
		})
	}
}

// TestEngineHashMetrics checks the incremental-hash instrumentation: a
// cached bytecode search answers every StateHash query from the rolling
// hash (no full recomputation on the hot path), dispatches a nonzero
// instruction count, and records the one-time bytecode compile cost;
// the reference answers the same queries by full walks.
func TestEngineHashMetrics(t *testing.T) {
	closed := mustClose(t, progs.Pipeline(2, 2))

	reg := obs.New()
	rep, err := Explore(closed, Options{StateCache: true, Obs: reg})
	if err != nil {
		t.Fatalf("bytecode Explore: %v", err)
	}
	if rep.States == 0 {
		t.Fatalf("empty search: %s", rep)
	}
	if got := reg.Counter(MetricInterpInstrs).Load(); got == 0 {
		t.Error("bytecode run dispatched 0 instructions")
	}
	incr := reg.Counter(MetricInterpHashIncr).Load()
	full := reg.Counter(MetricInterpHashFull).Load()
	if incr == 0 {
		t.Error("cached bytecode run answered no StateHash queries incrementally")
	}
	if full != 0 {
		t.Errorf("cached bytecode run recomputed the hash %d times on the hot path", full)
	}
	if got := reg.Gauge(MetricInterpCompileNanos).Load(); got <= 0 {
		t.Errorf("bytecode compile nanos = %d, want > 0", got)
	}
	if got := reg.Label("engine"); got != "bytecode" {
		t.Errorf("registry engine label = %q, want %q", got, "bytecode")
	}

	reg = obs.New()
	if _, err := Explore(closed, Options{Engine: interp.EngineRef, StateCache: true, Obs: reg}); err != nil {
		t.Fatalf("ref Explore: %v", err)
	}
	if got := reg.Counter(MetricInterpHashIncr).Load(); got != 0 {
		t.Errorf("ref run claims %d incremental hash answers", got)
	}
	if got := reg.Counter(MetricInterpHashFull).Load(); got == 0 {
		t.Error("cached ref run performed no full hash walks")
	}
	if got := reg.Label("engine"); got != "ref" {
		t.Errorf("registry engine label = %q, want %q", got, "ref")
	}
}
