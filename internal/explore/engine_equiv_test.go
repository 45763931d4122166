package explore

import (
	"fmt"
	"strings"
	"testing"

	"reclose/internal/interp"
	"reclose/internal/obs"
	"reclose/internal/progs"
)

// reportDigest renders everything a complete search must reproduce
// regardless of which interpreter executed it: every leaf counter,
// coverage, and the full ordered sample list including decision
// sequences. Replays/ReplaySteps are excluded — they vary with worker
// scheduling and SnapshotSpill by design, not with the engine.
func reportDigest(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "states=%d transitions=%d paths=%d maxdepth=%d\n",
		rep.States, rep.Transitions, rep.Paths, rep.MaxDepth)
	fmt.Fprintf(&b, "terminated=%d deadlocks=%d violations=%d traps=%d divergences=%d depth=%d sleep=%d cache=%d internal=%d\n",
		rep.Terminated, rep.Deadlocks, rep.Violations, rep.Traps, rep.Divergences,
		rep.DepthHits, rep.SleepPrunes, rep.CachePrunes, rep.InternalErrors)
	fmt.Fprintf(&b, "coverage=%d/%d\n", rep.OpsCovered, rep.OpsTotal)
	for _, in := range rep.Samples {
		fmt.Fprintf(&b, "%s depth=%d msg=%q decisions=%v\n", in.Kind, in.Depth, in.Msg, in.Decisions)
	}
	return b.String()
}

// TestEngineEquivalence is the cross-engine contract of the compiled
// machine: over engines {bytecode, ref} × workers {0, 2, 4} ×
// SnapshotSpill × StateCache, the merged reports are byte-identical
// per configuration (full digest where the configuration is
// deterministic; the schedule-independent digest for parallel cached
// runs, where which duplicate route gets pruned legitimately varies
// with arrival order — engines must still agree on every counter and
// the incident multiset).
func TestEngineEquivalence(t *testing.T) {
	engines := []interp.EngineKind{interp.EngineBytecode, interp.EngineRef}
	cases := map[string]string{
		"pipeline-2-2":   progs.Pipeline(2, 2),
		"philosophers-3": progs.Philosophers(3),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			closed := mustClose(t, src)
			for _, workers := range []int{0, 2, 4} {
				for _, spill := range []bool{false, true} {
					for _, cached := range []bool{false, true} {
						want := ""
						for _, eng := range engines {
							opt := Options{
								Engine:        eng,
								MaxIncidents:  1 << 20,
								Workers:       workers,
								SnapshotSpill: spill,
								StateCache:    cached,
							}
							label := fmt.Sprintf("engine=%s workers=%d spill=%t cache=%t",
								eng, workers, spill, cached)
							rep, err := Explore(closed, opt)
							if err != nil {
								t.Fatalf("%s: Explore: %v", label, err)
							}
							if rep.Incomplete {
								t.Fatalf("%s: search did not complete: %s", label, rep)
							}
							var got string
							if cached && workers > 0 {
								got = cacheDigest(rep)
							} else {
								got = reportDigest(rep)
							}
							if eng == engines[0] {
								want = got
								continue
							}
							if got != want {
								t.Errorf("%s: report diverged from bytecode engine:\n--- got ---\n%s--- want ---\n%s",
									label, got, want)
							}
						}
					}
				}
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
