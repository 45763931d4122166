package explore

import (
	"strings"
	"sync/atomic"
	"testing"

	"reclose/internal/interp"
	"reclose/internal/progs"
)

// TestOnLeafPanicIsolation injects a one-shot panic through the OnLeaf
// callback — after the path's leaf has been accounted — and checks the
// acceptance contract for panic isolation: the panic surfaces as a
// single internal-error incident with a replayable decision prefix, the
// rest of the search completes, and every other counter matches the
// panic-free run exactly. Checked sequentially and at workers=2 (one
// panicking work unit among many).
func TestOnLeafPanicIsolation(t *testing.T) {
	src := progs.Philosophers(3)
	closed := mustClose(t, src)
	base := Options{MaxIncidents: 1 << 20, OnLeaf: func(LeafKind, []Decision) {}}
	baseline, err := Explore(closed, base)
	if err != nil {
		t.Fatalf("baseline Explore: %v", err)
	}
	for _, workers := range []int{0, 2} {
		opt := base
		opt.Workers = workers
		var fired atomic.Bool
		var leaves atomic.Int64
		opt.OnLeaf = func(LeafKind, []Decision) {
			if leaves.Add(1) == 5 && fired.CompareAndSwap(false, true) {
				panic("boom in leaf callback")
			}
		}
		rep, err := Explore(closed, opt)
		if err != nil {
			t.Fatalf("workers=%d: Explore: %v", workers, err)
		}
		if rep.Incomplete {
			t.Fatalf("workers=%d: search did not complete: %s", workers, rep)
		}
		if rep.InternalErrors != 1 {
			t.Fatalf("workers=%d: InternalErrors = %d, want 1", workers, rep.InternalErrors)
		}
		// The panic fired after leaf accounting, so every other counter
		// matches the panic-free run exactly.
		if rep.States != baseline.States || rep.Transitions != baseline.Transitions ||
			rep.Paths != baseline.Paths || rep.Terminated != baseline.Terminated ||
			rep.Deadlocks != baseline.Deadlocks || rep.Violations != baseline.Violations ||
			rep.Traps != baseline.Traps || rep.Divergences != baseline.Divergences ||
			rep.DepthHits != baseline.DepthHits || rep.SleepPrunes != baseline.SleepPrunes {
			t.Errorf("workers=%d: counters diverged from panic-free run:\n  got:  %s\n  want: %s",
				workers, rep, baseline)
		}
		in := rep.FirstIncident(LeafInternalError)
		if in == nil {
			t.Fatalf("workers=%d: no internal-error sample recorded", workers)
		}
		if !strings.Contains(in.Msg, "boom in leaf callback") {
			t.Errorf("workers=%d: incident message %q does not carry the panic", workers, in.Msg)
		}
		if len(in.Decisions) == 0 {
			t.Fatalf("workers=%d: internal-error incident carries no decision prefix", workers)
		}
		if _, _, err := Replay(closed, in.Decisions, nil); err != nil {
			t.Errorf("workers=%d: internal-error prefix does not replay: %v", workers, err)
		}
	}
}

// TestMidPathPanicIsolation injects a panic in the middle of a path via
// the white-box state hook: the panicking path becomes an
// internal-error incident, only its subtree is lost, and the search
// still runs to completion with consistent counters.
func TestMidPathPanicIsolation(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	for _, workers := range []int{0, 2} {
		var fired atomic.Bool
		opt := Options{
			Workers:      workers,
			MaxIncidents: 1 << 20,
			testPanicAtState: func(dec []Decision) bool {
				return len(dec) == 4 && fired.CompareAndSwap(false, true)
			},
		}
		rep, err := Explore(closed, opt)
		if err != nil {
			t.Fatalf("workers=%d: Explore: %v", workers, err)
		}
		if rep.Incomplete {
			t.Fatalf("workers=%d: search did not complete: %s", workers, rep)
		}
		if rep.InternalErrors != 1 {
			t.Fatalf("workers=%d: InternalErrors = %d, want 1", workers, rep.InternalErrors)
		}
		sum := rep.Terminated + rep.Deadlocks + rep.Violations + rep.Traps +
			rep.Divergences + rep.DepthHits + rep.SleepPrunes + rep.CachePrunes +
			rep.InternalErrors
		if sum != rep.Paths {
			t.Errorf("workers=%d: leaf counters sum to %d, Paths = %d", workers, sum, rep.Paths)
		}
		in := rep.FirstIncident(LeafInternalError)
		if in == nil {
			t.Fatalf("workers=%d: no internal-error sample recorded", workers)
		}
		if len(in.Decisions) != 4 {
			t.Errorf("workers=%d: incident prefix has %d decisions, want the 4 reaching the panic",
				workers, len(in.Decisions))
		}
		if _, _, err := Replay(closed, in.Decisions, nil); err != nil {
			t.Errorf("workers=%d: internal-error prefix does not replay: %v", workers, err)
		}
	}
}

// TestMidStepPanicThenRestore panics in the middle of a transition —
// from the chooser, at the k-th VS_toss the search meets for the first
// time, so the interpreter is abandoned with a visible operation
// executed and its invisible suffix half run — and lets the search
// continue by restoring snapshots over the torn machine. The panic must
// cost exactly one internal-error path, and everything else must equal
// the replay-only engine's run under the same panic, which recovers
// through Reset.
func TestMidStepPanicThenRestore(t *testing.T) {
	// Two processes on one semaphore, each transition tossing in its
	// invisible suffix: scheduling and toss entries interleave all the
	// way down.
	closed := mustClose(t, `
sem s = 0;
proc w() {
    var i = 0;
    while (i < 2) {
        signal(s);
        var k = VS_toss(2);
        if (k == 1) {
            signal(s);
        }
        i = i + 1;
    }
}
process w;
process w;
`)
	run := func(replayOnly bool, panicAt int) *Report {
		opt := Options{MaxIncidents: 1 << 20, testReplayOnly: replayOnly}
		fresh := 0
		return driveEngine(t, closed, opt, func(e *engine) {
			inner := e.ch
			e.ch = interp.ChooserFunc(func(bound int) (int, bool) {
				// Count only tosses at the frontier: those happen in the
				// same order however earlier paths reached their states.
				if e.baseIdx >= len(e.base) && e.replayIdx >= len(e.stack) && len(e.stack) > 0 {
					if fresh++; fresh == panicAt {
						panic("boom mid-step")
					}
				}
				return inner.Choose(bound)
			})
		}, func(*engine) {})
	}
	clean := run(false, 0)
	if clean.InternalErrors != 0 || clean.Paths < 100 {
		t.Fatalf("clean run unusable: %s", clean)
	}
	for _, panicAt := range []int{2, 5, 17, 40} {
		restore, replay := run(false, panicAt), run(true, panicAt)
		if restore.InternalErrors != 1 {
			t.Fatalf("panic at toss %d: InternalErrors = %d, want 1", panicAt, restore.InternalErrors)
		}
		in := restore.FirstIncident(LeafInternalError)
		if in == nil || !strings.Contains(in.Msg, "boom mid-step") {
			t.Fatalf("panic at toss %d: internal-error sample %v does not carry the panic", panicAt, in)
		}
		if got, want := digest(restore, identical), digest(replay, identical); got != want {
			t.Errorf("panic at toss %d: restore diverged from replay:\n--- restore ---\n%s--- replay ---\n%s", panicAt, got, want)
		}
		if restore.ReplaySteps >= replay.ReplaySteps {
			t.Errorf("panic at toss %d: restore re-executed %d transitions, replay %d", panicAt, restore.ReplaySteps, replay.ReplaySteps)
		}
		// Only the panicking transition's subtree is lost.
		if restore.Paths >= clean.Paths || restore.Paths < clean.Paths/2 {
			t.Errorf("panic at toss %d: %d paths, clean run %d", panicAt, restore.Paths, clean.Paths)
		}
	}
}

// TestStaleSnapshotIsolated resumes from snapshots whose units are
// structurally valid but semantically bogus — a toss decision where a
// scheduling decision belongs, and a scheduling decision naming a
// process that does not exist. Both must surface as isolated
// internal-error incidents (via ReplayMismatchError or the recovered
// index panic), never crash or error out the search.
func TestStaleSnapshotIsolated(t *testing.T) {
	closed := mustClose(t, progs.DeadlockProne)
	sites := newSiteTable(closed)
	mkSnap := func(units ...snapUnit) *Snapshot {
		return &Snapshot{
			Version:   SnapshotVersion,
			Processes: len(closed.Processes),
			SiteBits:  sites.bits,
			Units:     units,
		}
	}
	cases := map[string]*Snapshot{
		"toss-for-sched": mkSnap(snapUnit{
			Prefix: []Decision{{Toss: true, Value: 0}},
			Cont:   true,
		}),
		"process-out-of-range": mkSnap(snapUnit{
			Prefix: []Decision{{Value: 97}},
			Cont:   true,
		}),
	}
	for name, snap := range cases {
		for _, workers := range []int{0, 2} {
			rep, err := Resume(closed, snap, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: Resume: %v", name, workers, err)
			}
			if rep.Incomplete {
				t.Errorf("%s workers=%d: search did not complete: %s", name, workers, rep)
			}
			if rep.InternalErrors != 1 {
				t.Errorf("%s workers=%d: InternalErrors = %d, want 1", name, workers, rep.InternalErrors)
			}
			if in := rep.FirstIncident(LeafInternalError); in == nil {
				t.Errorf("%s workers=%d: no internal-error sample", name, workers)
			} else if !strings.HasPrefix(in.Msg, "panic: ") {
				t.Errorf("%s workers=%d: incident message %q not a recovered panic", name, workers, in.Msg)
			}
		}
	}
}

// TestReplayMismatchError checks the structured error type itself.
func TestReplayMismatchError(t *testing.T) {
	err := &ReplayMismatchError{Want: "toss decision in prefix", Got: "run P1"}
	msg := err.Error()
	if !strings.Contains(msg, "replay mismatch") ||
		!strings.Contains(msg, "toss decision in prefix") || !strings.Contains(msg, "run P1") {
		t.Errorf("unexpected message: %q", msg)
	}
}
