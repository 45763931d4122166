package explore_test

import (
	"strings"
	"testing"

	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/progs"
)

func closeProg(t testing.TB, src string) *explore.Report {
	t.Helper()
	closed, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	rep, err := explore.Explore(closed, explore.Options{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return rep
}

// TestFigure2Exploration explores the closed Figure 2 program: ten
// binary tosses give exactly 2^10 terminating paths, no deadlocks, and
// at least one path mixes "even" and "odd" outputs (the strict upper
// approximation the paper describes).
func TestFigure2Exploration(t *testing.T) {
	closed, _, err := core.CloseSource(progs.FigureP)
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	traces, rep, err := explore.TraceLists(closed, explore.Options{}, 0)
	if err != nil {
		t.Fatalf("TraceLists: %v", err)
	}
	mixed := false
	for _, trace := range traces {
		sawEvn, sawOdd := false, false
		for _, ev := range trace.Events {
			sawEvn = sawEvn || strings.Contains(ev, "(evn)")
			sawOdd = sawOdd || strings.Contains(ev, "(odd)")
		}
		mixed = mixed || sawEvn && sawOdd
	}
	if rep.Paths != 1024 {
		t.Errorf("paths = %d, want 2^10 = 1024", rep.Paths)
	}
	if rep.Terminated != 1024 {
		t.Errorf("terminated = %d, want 1024", rep.Terminated)
	}
	if rep.Deadlocks != 0 || rep.Violations != 0 || rep.Traps != 0 {
		t.Errorf("unexpected incidents: %s", rep)
	}
	if !mixed {
		t.Error("no path mixes even and odd sends; closed p should be a strict upper approximation")
	}
}

// TestDeadlockDetected checks that the classic lock-ordering deadlock
// survives closing and is found by the search (Theorem 7).
func TestDeadlockDetected(t *testing.T) {
	rep := closeProg(t, progs.DeadlockProne)
	if rep.Deadlocks == 0 {
		t.Fatalf("no deadlock found: %s", rep)
	}
	in := rep.FirstIncident(explore.LeafDeadlock)
	if in == nil {
		t.Fatal("no deadlock sample recorded")
	}
	if in.Depth == 0 {
		t.Errorf("deadlock at depth 0?\n%s", in)
	}
}

// TestAssertionViolationDetected checks that the lost-update assertion
// violation survives closing and is found (Theorem 7: the assertion's
// argument does not depend on the environment).
func TestAssertionViolationDetected(t *testing.T) {
	rep := closeProg(t, progs.AssertViolation)
	if rep.Violations == 0 {
		t.Fatalf("no assertion violation found: %s", rep)
	}
	if rep.Traps != 0 {
		t.Errorf("unexpected traps: %s", rep)
	}
}

// TestPORSameIncidents checks that partial-order reduction and sleep
// sets do not change verification verdicts, only the number of explored
// states.
func TestPORSameIncidents(t *testing.T) {
	for _, src := range []string{progs.DeadlockProne, progs.AssertViolation, progs.ProducerConsumer, progs.Router} {
		closed, _, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("CloseSource: %v", err)
		}
		full, err := explore.Explore(closed, explore.Options{POR: explore.POROff, NoSleep: true})
		if err != nil {
			t.Fatalf("Explore full: %v", err)
		}
		red, err := explore.Explore(closed, explore.Options{})
		if err != nil {
			t.Fatalf("Explore reduced: %v", err)
		}
		if (full.Deadlocks > 0) != (red.Deadlocks > 0) {
			t.Errorf("POR changed deadlock verdict: full %s, reduced %s", full, red)
		}
		if (full.Violations > 0) != (red.Violations > 0) {
			t.Errorf("POR changed violation verdict: full %s, reduced %s", full, red)
		}
		if red.States > full.States {
			t.Errorf("reduction explored more states (%d) than full search (%d)", red.States, full.States)
		}
	}
}

// TestDepthBound checks that the depth bound truncates paths and is
// reported.
func TestDepthBound(t *testing.T) {
	closed, _, err := core.CloseSource(progs.FigureP)
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	rep, err := explore.Explore(closed, explore.Options{MaxDepth: 3})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.DepthHits == 0 {
		t.Errorf("expected depth-bounded paths: %s", rep)
	}
	if rep.MaxDepth > 3 {
		t.Errorf("MaxDepth = %d, want <= 3", rep.MaxDepth)
	}
}

// TestForwarderNoTrap checks that cross-process taint is handled: the
// closed Forwarder never branches on undef (the receive's uses were
// eliminated along with the channel data).
func TestForwarderNoTrap(t *testing.T) {
	rep := closeProg(t, progs.Forwarder)
	if rep.Traps != 0 {
		t.Fatalf("closed forwarder traps: %s\n%s", rep, rep.Samples)
	}
	if rep.Deadlocks != 0 {
		t.Errorf("unexpected deadlocks: %s", rep)
	}
	if rep.Paths < 2 {
		t.Errorf("the tainted branch should be a toss (>= 2 paths), got %s", rep)
	}
}
