package explore

import (
	"runtime"
	"testing"

	"reclose/internal/fiveess"
	"reclose/internal/obs"
	"reclose/internal/progs"
)

// TestTrailCounters pins the backtracking cost counters on the 5ESS
// medium model, read where a user reads them — the registry: every
// scheduling entry holds a mark, so every backtrack of a sequential
// search on the compiled machine begins by an undo and re-executes one
// transition, under static and under dynamic POR, and nothing here comes
// near the trail's bound.
func TestTrailCounters(t *testing.T) {
	u := mustClose(t, fiveess.Source(fiveess.Scale("medium")))
	counters := func(opt Options) (restores, undone, drops int64, rep *Report) {
		t.Helper()
		opt.Obs = obs.New()
		rep, err := Explore(u, opt)
		if err != nil {
			t.Fatal(err)
		}
		restores = opt.Obs.Counter(MetricTrailRestores).Load()
		undone = opt.Obs.Counter(MetricTrailUndone).Load()
		drops = opt.Obs.Counter(MetricTrailDrops).Load()
		if restores != rep.TrailRestores || undone != rep.TrailUndone || drops != rep.TrailDrops {
			t.Errorf("registry %d/%d/%d, report %d/%d/%d", restores, undone, drops,
				rep.TrailRestores, rep.TrailUndone, rep.TrailDrops)
		}
		return restores, undone, drops, rep
	}
	restores, undone, drops, rep := counters(Options{MaxDepth: 28})
	if restores != 138929 || restores != rep.Replays || rep.ReplaySteps != rep.Replays || drops != 0 {
		t.Errorf("static d28: %d restores, %d replay steps for %d replays, %d drops, want 138929 of each and no drop",
			restores, rep.ReplaySteps, rep.Replays, drops)
	}
	if undone < restores {
		t.Errorf("static d28: %d entries undone by %d restores", undone, restores)
	}
	restores, _, drops, rep = counters(Options{MaxDepth: 40, POR: PORDynamic})
	if restores != 46738 || restores != rep.Replays || rep.ReplaySteps > 46740 || drops != 0 {
		t.Errorf("dynamic d40: %d restores, %d replay steps for %d replays, %d drops, want 46738 restores, at most 46740 steps, no drop",
			restores, rep.ReplaySteps, rep.Replays, drops)
	}
}

// TestSearchAllocations guards the allocation-free scheduling loop: what
// a sequential search still allocates per transition is event payloads
// and the like, a fraction of an object — it was 2.30 objects on the
// first model and 1.32 on the second when sleep sets and option objects
// were allocated per state.
func TestSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, c := range []struct {
		name, src string
		opt       Options
		max       float64
	}{
		{"5ess-medium-d28", fiveess.Source(fiveess.Scale("medium")), Options{MaxDepth: 28}, 0.3},
		// The deepest paths and longest trail of the benchmark's searches.
		{"5ess-large-d500-s200000", fiveess.Source(fiveess.Scale("large")), Options{MaxDepth: 500, MaxStates: 200000}, 0.3},
		{"phil-7", progs.Philosophers(7), Options{}, 0.15},
	} {
		u := mustClose(t, c.src)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Explore(u, c.opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs := after.Mallocs - before.Mallocs // set-up included
		if per := float64(allocs) / float64(rep.Transitions); per > c.max {
			t.Errorf("%s: %d allocations for %d transitions = %.3f each, want at most %.2f",
				c.name, allocs, rep.Transitions, per, c.max)
		}
	}
}
