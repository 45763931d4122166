package explore_test

import (
	"fmt"
	"testing"

	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/obs"
	"reclose/internal/progs"
)

// checkRegistryMatches asserts the observability contract: every
// registry counter the engine flushes equals the corresponding merged
// Report counter exactly — not approximately, not eventually.
func checkRegistryMatches(t *testing.T, reg *obs.Registry, rep *explore.Report) {
	t.Helper()
	for _, c := range []struct {
		metric string
		want   int64
	}{
		{explore.MetricStates, rep.States},
		{explore.MetricTransitions, rep.Transitions},
		{explore.MetricPaths, rep.Paths},
		{explore.MetricReplays, rep.Replays},
		{explore.MetricReplaySteps, rep.ReplaySteps},
		{explore.MetricIncidents, rep.Incidents()},
		{explore.MetricPorBacktracks, rep.PorBacktracks},
		{explore.MetricPorSleepBlocked, rep.PorSleepBlocked},
		{explore.MetricPorDynamicPruned, rep.PorDynamicPruned},
		{explore.MetricTrailRestores, rep.TrailRestores},
		{explore.MetricTrailUndone, rep.TrailUndone},
		{explore.MetricTrailDrops, rep.TrailDrops},
	} {
		if got := reg.Counter(c.metric).Load(); got != c.want {
			t.Errorf("%s = %d, report says %d", c.metric, got, c.want)
		}
	}
	if got, want := reg.Gauge(explore.MetricDepthMax).Load(), int64(rep.MaxDepth); got != want {
		t.Errorf("%s = %d, report says %d", explore.MetricDepthMax, got, want)
	}
}

// TestMetricsMatchReport is the metamorphic consistency test of the
// observability layer: across worker counts and snapshot-spill modes —
// configurations that schedule, split, and merge work completely
// differently — the registry totals must equal the merged Report
// counters exactly. Run under -race (scripts/verify.sh does) this also
// exercises the concurrent flush paths.
func TestMetricsMatchReport(t *testing.T) {
	for name, src := range parallelCases(t) {
		closed, _, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("%s: CloseSource: %v", name, err)
		}
		for _, workers := range []int{0, 2, 4} {
			for _, spill := range []bool{false, true} {
				if spill && workers == 0 {
					continue // snapshot spill is a parallel-engine mode
				}
				t.Run(fmt.Sprintf("%s/workers=%d/snapshot-spill=%v", name, workers, spill), func(t *testing.T) {
					reg := obs.New()
					rep, err := explore.Explore(closed, explore.Options{
						Workers:       workers,
						SnapshotSpill: spill,
						Obs:           reg,
					})
					if err != nil {
						t.Fatalf("Explore: %v", err)
					}
					checkRegistryMatches(t, reg, rep)
					if got, want := reg.Gauge(explore.MetricWorkers).Load(), int64(workers); got != want {
						t.Errorf("%s = %d, want %d", explore.MetricWorkers, got, want)
					}
				})
			}
		}
	}
}

// TestMetricsMatchReportTruncated checks the same invariant when the
// search is cut by a state budget: partial counters must still agree,
// because both views are built from the same drained engine reports.
func TestMetricsMatchReportTruncated(t *testing.T) {
	closed, _, err := core.CloseSource(progs.Philosophers(3))
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := obs.New()
			rep, err := explore.Explore(closed, explore.Options{
				Workers:   workers,
				MaxStates: 40,
				Obs:       reg,
			})
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if !rep.Incomplete {
				t.Fatal("search was not truncated; raise the workload or lower MaxStates")
			}
			checkRegistryMatches(t, reg, rep)
		})
	}
}

// TestMetricsMatchReportResumed checks the invariant across a
// checkpoint/resume boundary: the resumed run's registry folds in the
// restored totals (addRestored) exactly as the report accumulator does,
// so whole-search numbers agree after stitching.
func TestMetricsMatchReportResumed(t *testing.T) {
	closed, _, err := core.CloseSource(progs.Philosophers(3))
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			first, err := explore.Explore(closed, explore.Options{
				Workers:   workers,
				MaxStates: 40,
			})
			if err != nil {
				t.Fatalf("first Explore: %v", err)
			}
			snap := first.Snapshot()
			if snap == nil {
				t.Fatal("truncated search produced no snapshot")
			}

			reg := obs.New()
			rep, err := explore.Resume(closed, snap, explore.Options{
				Workers: workers,
				Obs:     reg,
			})
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			checkRegistryMatches(t, reg, rep)
			if got := reg.Counter(explore.MetricResumes).Load(); got != 1 {
				t.Errorf("%s = %d, want 1", explore.MetricResumes, got)
			}
		})
	}
}

// TestMetricsDynamicPOR checks the dynamic-POR instrumentation: the
// por.* registry counters equal the merged report counters across
// sequential and parallel drivers, the backtrack counter actually
// moves on a workload where dynamic POR bites, and priority search
// fills the frontier-priority histogram with one observation per
// spilled unit.
func TestMetricsDynamicPOR(t *testing.T) {
	closed, _, err := core.CloseSource(progs.Philosophers(4))
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := obs.New()
			// The shallow SpillDepth keeps most of the parallel search
			// below the publication-seal horizon: entries at spillable
			// depths are statically expanded (soundness rule 1), so with
			// the default horizon this workload's entire 16-level tree
			// would degenerate to static and insert no backtracks.
			rep, err := explore.Explore(closed, explore.Options{
				POR:          explore.PORDynamic,
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
	t.Run("priority-histogram", func(t *testing.T) {
		reg := obs.New()
		rep, err := explore.Explore(closed, explore.Options{
			Search:       explore.SearchPriority,
			Workers:      2,
			Obs:          reg,
			MaxIncidents: 1 << 20,
		})
		if err != nil {
			t.Fatalf("Explore: %v", err)
		}
		checkRegistryMatches(t, reg, rep)
		h := reg.Histogram(explore.MetricFrontierPriority)
		if h.Count() == 0 {
			t.Error("priority search recorded no frontier-priority observations")
		}
	})
}

// TestMetricsNilRegistry pins the disabled mode: Options.Obs == nil
// must behave exactly like before the observability layer existed.
func TestMetricsNilRegistry(t *testing.T) {
	closed, _, err := core.CloseSource(progs.Philosophers(3))
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	with := obs.New()
	repOn, err := explore.Explore(closed, explore.Options{Obs: with})
	if err != nil {
		t.Fatalf("Explore (obs on): %v", err)
	}
	repOff, err := explore.Explore(closed, explore.Options{})
	if err != nil {
		t.Fatalf("Explore (obs off): %v", err)
	}
	if repOn.String() != repOff.String() {
		t.Errorf("observability changed the search:\n  on:  %s\n  off: %s", repOn, repOff)
	}
}
