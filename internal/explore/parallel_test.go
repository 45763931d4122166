package explore_test

import (
	"testing"

	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/interp"
	"reclose/internal/progs"
)

// parallelCases are closed systems whose complete searches are small
// enough to explore at every worker count.
func parallelCases(t testing.TB) map[string]string {
	t.Helper()
	return map[string]string{
		"figure2":           progs.FigureP,
		"deadlock-prone":    progs.DeadlockProne,
		"assert-violation":  progs.AssertViolation,
		"producer-consumer": progs.ProducerConsumer,
		"philosophers-3":    progs.Philosophers(3),
	}
}

// TestParallelMatchesSequential checks the central contract of the
// parallel engine: for a complete (non-truncated) search, every merged
// counter — and hence Report.String() — is identical to the sequential
// search's, regardless of worker count. ReplaySteps is a cost counter,
// not part of the contract: a claimed unit replays its prefix where the
// sequential search restores a snapshot, so the two legitimately differ.
func TestParallelMatchesSequential(t *testing.T) {
	for name, src := range parallelCases(t) {
		t.Run(name, func(t *testing.T) {
			closed, _, err := core.CloseSource(src)
			if err != nil {
				t.Fatalf("CloseSource: %v", err)
			}
			seq, err := explore.Explore(closed, explore.Options{})
			if err != nil {
				t.Fatalf("sequential Explore: %v", err)
			}
			for _, workers := range []int{1, 2, 4} {
				par, err := explore.Explore(closed, explore.Options{Workers: workers})
				if err != nil {
					t.Fatalf("parallel Explore (workers=%d): %v", workers, err)
				}
				if got, want := par.String(), seq.String(); got != want {
					t.Errorf("workers=%d report mismatch:\n  parallel:   %s\n  sequential: %s", workers, got, want)
				}
				if par.Replays != seq.Replays {
					t.Errorf("workers=%d replays = %d, sequential = %d", workers, par.Replays, seq.Replays)
				}
				if par.OpsCovered != seq.OpsCovered || par.OpsTotal != seq.OpsTotal {
					t.Errorf("workers=%d coverage = %d/%d, sequential = %d/%d",
						workers, par.OpsCovered, par.OpsTotal, seq.OpsCovered, seq.OpsTotal)
				}
				if par.Workers != workers {
					t.Errorf("report Workers = %d, want %d", par.Workers, workers)
				}
				if len(par.WorkerStats) != workers {
					t.Errorf("len(WorkerStats) = %d, want %d", len(par.WorkerStats), workers)
				}
				var units int64
				for _, ws := range par.WorkerStats {
					units += ws.Units
				}
				if units == 0 {
					t.Errorf("workers=%d claimed no work units", workers)
				}
			}
		})
	}
}

// TestParallelSpillDepthInvariance checks that the spill-depth knob
// changes only work granularity, never results.
func TestParallelSpillDepthInvariance(t *testing.T) {
	closed, _, err := core.CloseSource(progs.ProducerConsumer)
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	seq, err := explore.Explore(closed, explore.Options{})
	if err != nil {
		t.Fatalf("sequential Explore: %v", err)
	}
	for _, spill := range []int{1, 4, 64} {
		par, err := explore.Explore(closed, explore.Options{Workers: 3, SpillDepth: spill})
		if err != nil {
			t.Fatalf("Explore (spill=%d): %v", spill, err)
		}
		if got, want := par.String(), seq.String(); got != want {
			t.Errorf("spill=%d report mismatch:\n  parallel:   %s\n  sequential: %s", spill, got, want)
		}
	}
}

// TestParallelIncidentsReplay checks that every incident sample a
// parallel search records carries a decision sequence that replays
// deterministically to the same kind of leaf with the same message.
func TestParallelIncidentsReplay(t *testing.T) {
	for name, src := range parallelCases(t) {
		t.Run(name, func(t *testing.T) {
			closed, _, err := core.CloseSource(src)
			if err != nil {
				t.Fatalf("CloseSource: %v", err)
			}
			rep, err := explore.Explore(closed, explore.Options{Workers: 3})
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			for i, in := range rep.Samples {
				sys, out, err := explore.Replay(closed, in.Decisions, nil)
				if err != nil {
					t.Fatalf("sample %d (%s): Replay: %v", i, in.Kind, err)
				}
				switch in.Kind {
				case explore.LeafDeadlock:
					if out != nil {
						t.Errorf("sample %d: deadlock replay ended with outcome %v", i, out)
					} else if !sys.Deadlocked() {
						t.Errorf("sample %d: deadlock replay did not reach a deadlocked state", i)
					}
				case explore.LeafViolation, explore.LeafTrap, explore.LeafDivergence:
					if out == nil {
						t.Fatalf("sample %d: %s replay produced no outcome", i, in.Kind)
					}
					wantKind := map[explore.LeafKind]interp.OutcomeKind{
						explore.LeafViolation:  interp.OutViolation,
						explore.LeafTrap:       interp.OutTrap,
						explore.LeafDivergence: interp.OutDivergence,
					}[in.Kind]
					if out.Kind != wantKind {
						t.Errorf("sample %d: replay outcome kind = %v, recorded leaf %s", i, out.Kind, in.Kind)
					}
					if out.Msg != in.Msg {
						t.Errorf("sample %d: replay message = %q, recorded %q", i, out.Msg, in.Msg)
					}
				default:
					t.Errorf("sample %d has uninteresting kind %s", i, in.Kind)
				}
			}
		})
	}
}

// TestParallelTruncation checks that MaxStates stops a parallel search
// and marks the report truncated (the exact counts are
// timing-dependent and deliberately not asserted).
func TestParallelTruncation(t *testing.T) {
	closed, _, err := core.CloseSource(progs.Philosophers(3))
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	rep, err := explore.Explore(closed, explore.Options{Workers: 2, MaxStates: 50})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if !rep.Truncated {
		t.Errorf("report not marked truncated: %s", rep)
	}
	if rep.States < 50 {
		t.Errorf("states = %d, want >= MaxStates", rep.States)
	}
}
