package explore

import (
	"context"
	"testing"
	"time"

	"reclose/internal/interp"
	"reclose/internal/progs"
)

// leafSum adds up every per-kind path counter; it must equal Paths on
// any report, partial or complete.
func leafSum(rep *Report) int64 {
	return rep.Terminated + rep.Deadlocks + rep.Violations + rep.Traps +
		rep.Divergences + rep.DepthHits + rep.SleepPrunes + rep.CachePrunes +
		rep.InternalErrors
}

// Deadlocked reads a state the way the search does, by scanEnabled's
// rule over its pending table: no process enabled, and one other than a
// daemon still running. It is exported for the external tests.
func Deadlocked(m interp.Machine) bool {
	stuck := false
	for _, pd := range m.AppendPending(nil) {
		if pd.Flags&interp.PendEnabled != 0 {
			return false
		}
		stuck = stuck || pd.Flags&(interp.PendRunning|interp.PendDaemon) == interp.PendRunning
	}
	return stuck
}

// replaySamples re-executes every recorded sample and checks it ends in
// the recorded leaf kind with the recorded message.
func replaySamples(t *testing.T, rep *Report, src string) {
	t.Helper()
	closed := mustClose(t, src)
	for i, in := range rep.Samples {
		sys, out, err := Replay(closed, in.Decisions, nil)
		if err != nil {
			t.Errorf("sample %d (%s): Replay: %v", i, in.Kind, err)
			continue
		}
		switch in.Kind {
		case LeafDeadlock:
			if out != nil {
				t.Errorf("sample %d: deadlock replay ended with outcome %v", i, out)
			} else if !Deadlocked(sys) {
				t.Errorf("sample %d: deadlock replay did not reach a deadlocked state", i)
			}
		case LeafViolation, LeafTrap, LeafDivergence:
			if out == nil {
				t.Errorf("sample %d: %s replay produced no outcome", i, in.Kind)
			} else if out.Msg != in.Msg {
				t.Errorf("sample %d: replay message = %q, recorded %q", i, out.Msg, in.Msg)
			}
		}
	}
}

// TestMaxStatesPartialReport checks that exhausting the MaxStates
// budget yields a graceful partial report at every worker count: no
// error, Incomplete with the right cause, internally consistent
// counters, replayable samples, and a snapshot of the remaining work.
func TestMaxStatesPartialReport(t *testing.T) {
	src := progs.Philosophers(3)
	closed := mustClose(t, src)
	for _, workers := range []int{0, 2} {
		rep, err := Explore(closed, Options{Workers: workers, MaxStates: 40})
		if err != nil {
			t.Fatalf("workers=%d: Explore: %v", workers, err)
		}
		if !rep.Incomplete {
			t.Fatalf("workers=%d: budget-cut report not Incomplete: %s", workers, rep)
		}
		if rep.Cause != StopMaxStates {
			t.Errorf("workers=%d: Cause = %s, want %s", workers, rep.Cause, StopMaxStates)
		}
		// The budget is reserved before a state is credited, so a cut
		// run counts exactly MaxStates — no per-engine overshoot.
		if rep.States != 40 {
			t.Errorf("workers=%d: states = %d, want exactly MaxStates (40)", workers, rep.States)
		}
		if got, want := leafSum(rep), rep.Paths; got != want {
			t.Errorf("workers=%d: leaf counters sum to %d, Paths = %d", workers, got, want)
		}
		if rep.Snapshot() == nil {
			t.Errorf("workers=%d: Incomplete report has no snapshot", workers)
		}
		replaySamples(t, rep, src)
	}
}

// TestTimeoutPartialReport checks a context deadline: the search drains
// cleanly and reports a consistent partial result with Cause
// StopTimeout, and resuming its snapshot (without the deadline)
// completes it to the uninterrupted baseline.
func TestTimeoutPartialReport(t *testing.T) {
	src := progs.Philosophers(3)
	closed := mustClose(t, src)
	base := Options{MaxIncidents: 1 << 20, POR: POROff, NoSleep: true}
	baseline, err := Explore(closed, base)
	if err != nil {
		t.Fatalf("baseline Explore: %v", err)
	}
	want := digest(raced(baseline), identical)
	for _, workers := range []int{0, 2} {
		// Slow the search down through the leaf callback so a short
		// timeout reliably lands mid-run without depending on machine
		// speed.
		opt := base
		opt.Workers = workers
		opt.OnLeaf = func(LeafKind, []Decision) { time.Sleep(time.Millisecond) }
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		rep, err := ExploreContext(ctx, closed, opt)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: Explore: %v", workers, err)
		}
		if !rep.Incomplete {
			t.Fatalf("workers=%d: timed-out search not Incomplete (paths=%d of %d)",
				workers, rep.Paths, baseline.Paths)
		}
		if rep.Cause != StopTimeout {
			t.Errorf("workers=%d: Cause = %s, want %s", workers, rep.Cause, StopTimeout)
		}
		if got, want := leafSum(rep), rep.Paths; got != want {
			t.Errorf("workers=%d: leaf counters sum to %d, Paths = %d", workers, got, want)
		}
		replaySamples(t, rep, src)
		snap := rep.Snapshot()
		if snap == nil {
			t.Fatalf("workers=%d: Incomplete report has no snapshot", workers)
		}
		final, err := Resume(closed, snap, base)
		if err != nil {
			t.Fatalf("workers=%d: Resume: %v", workers, err)
		}
		if got := digest(raced(final), identical); got != want {
			t.Errorf("workers=%d: timeout+resume result diverged:\n--- got ---\n%s--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestPreCancelledContext checks that a context cancelled before the
// search starts still returns a graceful (and nearly empty) partial
// report rather than an error.
func TestPreCancelledContext(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 2} {
		opt := Options{Workers: workers, POR: POROff, NoSleep: true}
		rep, err := ExploreContext(ctx, closed, opt)
		if err != nil {
			t.Fatalf("workers=%d: ExploreContext: %v", workers, err)
		}
		if !rep.Incomplete || rep.Cause != StopCancelled {
			t.Errorf("workers=%d: report = %s cause=%s, want Incomplete/cancelled",
				workers, rep, rep.Cause)
		}
		if got, want := leafSum(rep), rep.Paths; got != want {
			t.Errorf("workers=%d: leaf counters sum to %d, Paths = %d", workers, got, want)
		}
	}
}
