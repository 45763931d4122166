package explore

import (
	"fmt"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/fiveess"
	"reclose/internal/interp"
	"reclose/internal/progs"
)

// This file holds the contract of backtracking by undoing
// (restore.go): it changes what a path costs, never what the search
// finds. The baseline is the same engine with Options.testReplayOnly
// set, which takes no marks and so replays every path from the
// start of its unit, as every engine did before.

// walkSchedDepth is the stack walk schedDepth used to be; the running
// count must always equal it.
func (e *engine) walkSchedDepth() int {
	d := e.baseSched
	for _, en := range e.stack {
		if !en.isToss {
			d++
		}
	}
	return d
}

// driveEngine runs a sequential search on a hand-built engine, calling
// setup (if any) once the engine exists and check at every fresh state
// and after every path, and returns the engine's report. It is the
// worker loop on one root unit without the frontier, checkpoints and
// metrics, for tests that need to look inside the engine.
func driveEngine(t *testing.T, u *cfg.Unit, opt Options, setup, check func(e *engine)) *Report {
	t.Helper()
	opt, err := opt.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Resolve(u)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newMachine(res, opt)
	if err != nil {
		t.Fatal(err)
	}
	var e *engine
	opt.testPanicAtState = func([]Decision) bool {
		check(e)
		return false
	}
	e = newEngine(sys, opt, footprints(u), newSiteTable(u), &sharedState{maxStates: opt.MaxStates})
	e.cache = newStateCache(opt)
	if setup != nil {
		setup(e)
	}
	e.prepareUnit(&workUnit{root: true})
	for {
		e.runPathSafe()
		check(e)
		if e.shared.stopped() || !e.backtrack() {
			break
		}
		e.rep.Replays++
	}
	return e.rep
}

// TestSchedDepthMatchesWalk asserts the running scheduling-depth count
// equal to the stack walk at every fresh state and every path end, over
// toss-heavy and dynamic-POR searches.
func TestSchedDepthMatchesWalk(t *testing.T) {
	checks := 0
	for name, u := range closedPrograms(t) {
		for _, por := range []PORMode{PORStatic, PORDynamic, POROff} {
			driveEngine(t, u, Options{POR: por, MaxDepth: 30}, nil, func(e *engine) {
				checks++
				if got, want := e.schedDepth(), e.walkSchedDepth(); got != want {
					t.Fatalf("%s por=%s: schedDepth() = %d, stack walk = %d (stack %d entries)",
						name, por, got, want, len(e.stack))
				}
			})
		}
	}
	if checks == 0 {
		t.Fatal("no state was checked")
	}
}

// heavyProgram is two independent processes each signalling its own
// semaphore n times and storing 2*spin times in between: with reduction
// off every state down to depth 2n has two options, and every transition
// logs 2*spin trail entries.
func heavyProgram(n, spin int) string {
	return fmt.Sprintf(`
sem a = 0;
sem b = 0;
proc pa() {
    var i;
    var j;
    var x;
    for (i = 0; i < %[1]d; i = i + 1) {
        signal(a);
        for (j = 0; j < %[2]d; j = j + 1) { x = x + 1; }
    }
}
proc pb() {
    var i;
    var j;
    var x;
    for (i = 0; i < %[1]d; i = i + 1) {
        signal(b);
        for (j = 0; j < %[2]d; j = j + 1) { x = x + 1; }
    }
}
process pa;
process pb;
`, n, spin)
}

// TestTrailCap explores a program whose paths log more than the machine
// keeps (interp's maxTrail, 65 536 entries; a path here logs 108 000):
// the machine drops its log on the way down, the entries above that
// point — their marks dead — are still explored, by one replay each time
// the search comes back to them, the deeper ones still by undoing, and
// the report equals the replay-only one.
func TestTrailCap(t *testing.T) {
	u := mustClose(t, heavyProgram(3, 9000))
	opt := Options{POR: POROff, NoSleep: true, MaxIncidents: 4}
	restore, err := Explore(u, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.testReplayOnly = true
	replay, err := Explore(u, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(restore, identical), digest(replay, identical); got != want {
		t.Errorf("capped restore diverged from replay:\n--- restore ---\n%s--- replay ---\n%s", got, want)
	}
	if restore.TrailDrops == 0 || replay.TrailDrops != 0 {
		t.Errorf("TrailDrops = %d (replay-only %d), want the log dropped", restore.TrailDrops, replay.TrailDrops)
	}
	if restore.TrailRestores == 0 || restore.TrailRestores >= restore.Replays {
		t.Errorf("%d of %d paths began by an undo, want some and not all", restore.TrailRestores, restore.Replays)
	}
	if restore.ReplaySteps >= replay.ReplaySteps {
		t.Errorf("capped restore re-executed %d transitions, replay %d", restore.ReplaySteps, replay.ReplaySteps)
	}
}

// TestResumedStackIsMarked resumes a dynamic-POR checkpoint, whose unit
// carries the whole decision stack. The rebuilt entries hold no mark, so
// the first path replays the stack — and marks every entry it passes:
// from then on a return to any of them is an undo, one re-executed
// transition like any backtrack. (While only an entry pushed at a fresh
// state could be restored to, every return to a rebuilt one replayed its
// prefix: 27 054 re-executed transitions for this resume's 26 739
// restarts, now 26 775.)
func TestResumedStackIsMarked(t *testing.T) {
	u := mustClose(t, fiveess.Source(fiveess.Scale("medium")))
	opt := Options{POR: PORDynamic, MaxDepth: 40, MaxIncidents: 4}
	snap, _ := cutOnce(t, u, opt, 20000)
	if snap == nil || len(snap.Units) != 1 || len(snap.Units[0].Stack) < 20 {
		t.Fatalf("want a checkpoint of one deep stack-continuation unit, got %+v", snap)
	}
	depth := int64(len(snap.Units[0].Stack))
	restore, err := Resume(u, snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.testReplayOnly = true
	replay, err := Resume(u, snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(restore, identical), digest(replay, identical); got != want {
		t.Fatalf("resumed searches diverged:\n--- restore ---\n%s--- replay ---\n%s", got, want)
	}
	resumed := restore.Replays - snap.Counters.Replays // path restarts since the checkpoint
	steps := restore.ReplaySteps - snap.Counters.ReplaySteps
	if restore.TrailRestores != resumed-1 || steps > resumed+depth {
		t.Errorf("resumed search: %d restarts, %d by undo, %d transitions re-executed; want all but the first by undo and at most %d (the stack once, then one each)",
			resumed, restore.TrailRestores, steps, resumed+depth)
	}
}

// TestPanicKillsMarks panics at a fresh state in the middle of a path,
// with a mark outstanding on every entry of the stack: the recovery
// abandons them all, so exactly one later path — the next — starts from
// Reset instead of an undo, and the search's findings equal the
// replay-only engine's under the same panic.
func TestPanicKillsMarks(t *testing.T) {
	u := mustClose(t, progs.Philosophers(3))
	for _, por := range []PORMode{PORStatic, PORDynamic, POROff} {
		run := func(replayOnly, panics bool) *Report {
			fired := false
			opt := Options{POR: por, MaxIncidents: 1 << 20, testReplayOnly: replayOnly}
			opt.testPanicAtState = func(dec []Decision) bool {
				if panics && !fired && len(dec) == 5 {
					fired = true
					return true
				}
				return false
			}
			rep, err := Explore(u, opt)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		if clean := run(false, false); clean.TrailRestores != clean.Replays {
			t.Fatalf("por=%s: clean run: %d of %d restarts by undo", por, clean.TrailRestores, clean.Replays)
		}
		restore, replay := run(false, true), run(true, true)
		if restore.InternalErrors != 1 {
			t.Fatalf("por=%s: InternalErrors = %d, want 1", por, restore.InternalErrors)
		}
		if got, want := digest(restore, identical), digest(replay, identical); got != want {
			t.Errorf("por=%s: restore diverged from replay:\n--- restore ---\n%s--- replay ---\n%s", por, got, want)
		}
		if restore.TrailRestores != restore.Replays-1 {
			t.Errorf("por=%s: %d of %d restarts by undo, want all but the one after the panic", por, restore.TrailRestores, restore.Replays)
		}
	}
}
