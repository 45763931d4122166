package mgenv_test

import (
	"fmt"
	"slices"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/mgenv"
	"reclose/internal/progs"
)

// traceSets computes the visible-trace sets of the naive composition
// S × E_S (domain D, projected to system processes) and of the closed
// transformation S'.
func traceSets(t *testing.T, src string, domain int) (open, closed map[string]bool) {
	t.Helper()
	naive, info, err := mgenv.ComposeSource(src, domain)
	if err != nil {
		t.Fatalf("ComposeSource: %v", err)
	}
	open, _, err = explore.TraceSet(naive, explore.Options{MaxDepth: 200}, info.SystemProcs)
	if err != nil {
		t.Fatalf("TraceSet(naive): %v", err)
	}
	closedUnit, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	closed, _, err = explore.TraceSet(closedUnit, explore.Options{MaxDepth: 200}, 0)
	if err != nil {
		t.Fatalf("TraceSet(closed): %v", err)
	}
	return open, closed
}

// TestFigure2StrictUpper reproduces the Figure 2 claim: the closed
// program is a strict upper approximation of p × E_S — every behavior of
// the open system appears in the closed one, and the closed one has
// behaviors (mixed even/odd runs) the open one cannot exhibit.
func TestFigure2StrictUpper(t *testing.T) {
	open, closed := traceSets(t, progs.FigureP, 16)
	if w, ok := explore.Subset(open, closed); !ok {
		t.Fatalf("Theorem 6 violated: open trace not in closed set: %s", w)
	}
	// p's parity is fixed per run: only 2 distinct projected traces.
	if len(open) != 2 {
		t.Errorf("open trace count = %d, want 2 (all-even and all-odd)", len(open))
	}
	if len(closed) != 1024 {
		t.Errorf("closed trace count = %d, want 2^10 = 1024", len(closed))
	}
	if len(closed) <= len(open) {
		t.Errorf("approximation is not strict: open %d, closed %d", len(open), len(closed))
	}
}

// TestFigure3Equivalent reproduces the Figure 3 claim: for q, which
// sends the ten least-significant bits of x, the closed program is an
// optimal translation — with the full 2^10 input domain, the trace sets
// coincide exactly.
func TestFigure3Equivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 1024 input values")
	}
	open, closed := traceSets(t, progs.FigureQ, 1024)
	if len(open) != 1024 {
		t.Errorf("open trace count = %d, want 1024", len(open))
	}
	if len(closed) != 1024 {
		t.Errorf("closed trace count = %d, want 1024", len(closed))
	}
	if w, ok := explore.Subset(open, closed); !ok {
		t.Fatalf("open trace missing from closed set: %s", w)
	}
	if w, ok := explore.Subset(closed, open); !ok {
		t.Fatalf("closed trace missing from open set (translation not optimal): %s", w)
	}
}

// fullTraces memoizes fullTraceLists by domain and source:
// TestTheorem6Inclusion and TestTheorem7Preservation compare the same
// deadlock and violation programs.
var fullTraces = map[string][2][]explore.Trace{}

// fullTraceLists returns the distinct traces, leaf kinds included, of the
// naive composition S × E_S (domain D, projected to system processes) and
// of the closed transformation S'. Comparing them needs every
// interleaving on both sides, so partial-order reduction is off.
func fullTraceLists(t *testing.T, src string, domain int) (open, closed []explore.Trace) {
	t.Helper()
	key := fmt.Sprint(domain, src)
	if l, ok := fullTraces[key]; ok {
		return l[0], l[1]
	}
	naive, info, err := mgenv.ComposeSource(src, domain)
	if err != nil {
		t.Fatalf("ComposeSource: %v", err)
	}
	full := explore.Options{MaxDepth: 200, POR: explore.POROff, NoSleep: true}
	open, _, err = explore.TraceLists(naive, full, info.SystemProcs)
	if err != nil {
		t.Fatalf("TraceLists(naive): %v", err)
	}
	closedUnit, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	closed, _, err = explore.TraceLists(closedUnit, full, 0)
	if err != nil {
		t.Fatalf("TraceLists(closed): %v", err)
	}
	fullTraces[key] = [2][]explore.Trace{open, closed}
	return open, closed
}

// TestTheorem6Inclusion checks visible-trace inclusion of S × E_S in S'
// across the example programs, for a modest domain. Closed-side events
// whose data was eliminated carry undef and match any concrete value
// (Theorem 6 preserves only environment-independent values).
func TestTheorem6Inclusion(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    string
		domain int
	}{
		{"figP", progs.FigureP, 8},
		{"figQ", progs.FigureQ, 8},
		{"simple-taint", progs.SimpleTaint, 8},
		{"path-independent", progs.PathIndependent, 8},
		{"interproc", progs.Interproc, 8},
		{"forwarder", progs.Forwarder, 4},
		{"deadlock", progs.DeadlockProne, 2},
		{"assert", progs.AssertViolation, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			open, closed := fullTraceLists(t, tc.src, tc.domain)
			if len(open) == 0 {
				t.Fatal("no open traces collected")
			}
			if w, ok := explore.WildcardSubset(open, closed); !ok {
				t.Errorf("open trace not matched by any closed trace: %s", w)
			}
		})
	}
}

// twoDeadlocks deadlocks one way when the environment sends 0 and
// another when it sends anything else: a closer that kept one and lost
// the other would still count a deadlock.
const twoDeadlocks = `
sem s = 0;
chan c[1];
chan in1[1];
env chan in1;

proc p() {
    var x;
    recv(in1, x);
    if (x == 0) {
        send(c, 1);
    }
    wait(s);
}

process p;
`

// TestTheorem7Preservation checks Theorem 7 trace by trace: every
// deadlock and environment-independent assertion violation trace of
// S × E_S, over every interleaving, is matched by a trace of S' that
// ends the same way. S' also meets its first incident no later than
// S × E_S (E5's last two columns: the closed system has no environment
// values to branch over before it reaches the incident).
func TestTheorem7Preservation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    string
		domain int
		kind   explore.LeafKind
	}{
		{"deadlock", progs.DeadlockProne, 2, explore.LeafDeadlock},
		{"assert", progs.AssertViolation, 2, explore.LeafViolation},
		{"two-deadlocks", twoDeadlocks, 2, explore.LeafDeadlock},
	} {
		t.Run(tc.name, func(t *testing.T) {
			naive, _, err := mgenv.ComposeSource(tc.src, tc.domain)
			if err != nil {
				t.Fatalf("ComposeSource: %v", err)
			}
			closedUnit, _, err := core.CloseSource(tc.src)
			if err != nil {
				t.Fatalf("CloseSource: %v", err)
			}
			first := func(u *cfg.Unit) int64 {
				rep, err := explore.Explore(u, explore.Options{MaxDepth: 200})
				if err != nil {
					t.Fatalf("Explore: %v", err)
				}
				return rep.StatesAtFirstIncident
			}
			if c, o := first(closedUnit), first(naive); c == 0 || c > o {
				t.Errorf("first incident after %d states closed, %d naive", c, o)
			}
			open, closed := fullTraceLists(t, tc.src, tc.domain)
			if !slices.ContainsFunc(open, func(tr explore.Trace) bool { return tr.Kind == tc.kind }) {
				t.Errorf("the naive composition has no %s trace", tc.kind)
			}
			if w, ok := explore.IncidentsMatched(open, closed); !ok {
				t.Errorf("Theorem 7 violated: no closed trace ends as this one does:\n  %s", w)
			}
		})
	}
}

// TestDomainBlowup is a miniature of experiment E4: the naive state
// space grows with the domain while the closed one is independent of it.
func TestDomainBlowup(t *testing.T) {
	states := func(domain int) int64 {
		naive, _, err := mgenv.ComposeSource(progs.Router, domain)
		if err != nil {
			t.Fatalf("ComposeSource: %v", err)
		}
		rep, err := explore.Explore(naive, explore.Options{MaxDepth: 40})
		if err != nil {
			t.Fatalf("Explore: %v", err)
		}
		return rep.States
	}
	s2, s8 := states(2), states(8)
	if s8 <= s2 {
		t.Errorf("naive state space did not grow with domain: D=2 -> %d states, D=8 -> %d states", s2, s8)
	}

	closedUnit, _, err := core.CloseSource(progs.Router)
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	rep, err := explore.Explore(closedUnit, explore.Options{MaxDepth: 40})
	if err != nil {
		t.Fatalf("Explore(closed): %v", err)
	}
	if rep.States >= s8 {
		t.Errorf("closed state space (%d) not smaller than naive at D=8 (%d)", rep.States, s8)
	}
}
