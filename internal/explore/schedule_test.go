package explore

import (
	"runtime"
	"testing"

	"reclose/internal/core"
	"reclose/internal/fiveess"
	"reclose/internal/interp"
	"reclose/internal/lockserver"
	"reclose/internal/obs"
	"reclose/internal/progs"
)

// TestSnapshotCounters pins the backtracking-snapshot cost counters on
// the 5ESS medium model, read where a user reads them — the registry:
// under static POR every snapshot saved is started from again (none is
// wasted), and under dynamic POR the learned rule of saveSnapshot keeps
// the share dropped unused — 81 % when every entry that could grow was
// saved — under two thirds, without giving up a restore.
func TestSnapshotCounters(t *testing.T) {
	u := mustClose(t, fiveess.Source(fiveess.Scale("medium")))
	counters := func(opt Options) (saved, restored, unused int64, rep *Report) {
		t.Helper()
		opt.Obs = obs.New()
		rep, err := Explore(u, opt)
		if err != nil {
			t.Fatal(err)
		}
		saved = opt.Obs.Counter(MetricSnapshotsSaved).Load()
		restored = opt.Obs.Counter(MetricSnapshotsRestored).Load()
		unused = opt.Obs.Counter(MetricSnapshotsUnused).Load()
		if saved != rep.SnapshotsSaved || restored != rep.SnapshotsRestored || unused != rep.SnapshotsUnused {
			t.Errorf("registry %d/%d/%d, report %d/%d/%d", saved, restored, unused,
				rep.SnapshotsSaved, rep.SnapshotsRestored, rep.SnapshotsUnused)
		}
		return saved, restored, unused, rep
	}
	if saved, restored, unused, _ := counters(Options{MaxDepth: 28}); saved != 89128 || restored != 138928 || unused != 0 {
		t.Errorf("static d28: saved/restored/unused = %d/%d/%d, want 89128/138928/0", saved, restored, unused)
	}
	saved, restored, unused, rep := counters(Options{MaxDepth: 40, POR: PORDynamic})
	if float64(unused) > 0.65*float64(saved) {
		t.Errorf("dynamic d40: %d of %d snapshots dropped unused, want at most 65%%", unused, saved)
	}
	// Every backtrack but the few at sites that had stopped being saved
	// starts from a snapshot, one re-executed transition each.
	if restored != rep.Replays || rep.ReplaySteps > rep.Replays+rep.Replays/100 {
		t.Errorf("dynamic d40: %d restores, %d replay steps for %d replays", restored, rep.ReplaySteps, rep.Replays)
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

// BenchmarkSchedule measures what the search does between two states of
// a backtrack besides executing the transition: restore a snapshot, step
// one process, read the new state's pending table, list its enabled
// processes, take their persistent set and compute the sleep set the
// first option's subtree inherits. The loop must not allocate.
func BenchmarkSchedule(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"5ess-medium", fiveess.Source(fiveess.Scale("medium"))},
		{"lock-c4-r2", lockserver.Source(lockserver.Config{Clients: 4, Rounds: 2})},
	} {
		b.Run(c.name, func(b *testing.B) {
			u, _, err := core.CloseSource(c.src)
			if err != nil {
				b.Fatal(err)
			}
			res, err := interp.Resolve(u)
			if err != nil {
				b.Fatal(err)
			}
			snap, m := res.NewSystem(), res.NewSystem()
			e := newEngine(m, Options{}.withDefaults(), footprints(u), newSiteTable(u), &sharedState{})
			ch := interp.FixedChooser(0)
			if out := snap.Init(ch); out != nil {
				b.Fatal(out)
			}
			for i := 0; i < 6; i++ { // a few transitions in: several processes enabled
				if _, out := snap.Step(snap.EnabledProcs()[0], ch); out != nil {
					b.Fatal(out)
				}
			}
			p := snap.EnabledProcs()[0]
			// The inherited sleep set: every enabled process but p, as if
			// each had been explored at the parent.
			var inherited sleepSet
			for _, q := range snap.EnabledProcs()[1:] {
				inherited = append(inherited, sleepEntry{proc: q, obj: snap.AppendPending(nil)[q].Obj})
			}
			en := e.getEntry()
			sink := 0
			step := func() {
				if !m.CopyFrom(snap) {
					b.Fatal("snapshot refused")
				}
				if _, out := m.Step(p, ch); out != nil {
					b.Fatal(out)
				}
				e.observe()
				e.scanEnabled()
				set := e.persistentSet(e.enBuf)
				en.options, en.objs, en.sleep = en.options[:0], en.objs[:0], inherited
				for _, q := range set {
					en.options = append(en.options, q)
					en.objs = append(en.objs, e.pend[q].Obj)
				}
				en.cursor = len(en.options) - 1
				sink += len(set) + len(en.childSleep())
			}
			step() // grow the scratch buffers once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			if sink == 0 {
				b.Fatal("nothing was scheduled")
			}
		})
	}
}
