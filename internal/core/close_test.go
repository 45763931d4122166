package core_test

import (
	"strings"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/progs"
)

// countKind counts nodes of the given kind across the unit.
func countKind(u *cfg.Unit, kind cfg.NodeKind) int {
	total := 0
	for _, name := range u.Order {
		for _, n := range u.Procs[name].Nodes {
			if n.Kind == kind {
				total++
			}
		}
	}
	return total
}

// TestFigure2Shape checks that closing the paper's Figure 2 procedure p
// produces exactly the structure shown in the figure: the parity
// computation and the conditional disappear, the loop and both sends
// survive, and a single VS_toss(1) switch appears inside the loop.
func TestFigure2Shape(t *testing.T) {
	u := core.MustCompileSource(progs.FigureP)
	closed, st, err := core.Close(u)
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	g := closed.Graph("p")
	if g == nil {
		t.Fatal("closed unit lost procedure p")
	}
	if len(g.Params) != 0 {
		t.Errorf("closed p still has parameters %v; Step 5 should remove x", g.Params)
	}
	if st.ParamsRemoved != 1 {
		t.Errorf("ParamsRemoved = %d, want 1", st.ParamsRemoved)
	}
	if got := countKind(closed, cfg.NTossSwitch); got != 1 {
		t.Errorf("toss switches = %d, want 1\n%s", got, g)
	}
	toss := 0
	for _, n := range g.Nodes {
		if n.Kind == cfg.NTossSwitch {
			toss++
			if n.TossBound() != 1 {
				t.Errorf("toss bound = %d, want 1 (two branches)", n.TossBound())
			}
		}
	}
	// Both sends survive.
	sends := 0
	for _, n := range g.Nodes {
		if n.Kind == cfg.NCall && n.CallStmt().Name.Name == "send" {
			sends++
		}
	}
	if sends != 2 {
		t.Errorf("sends preserved = %d, want 2\n%s", sends, g)
	}
	// The parity computation (y = x % 2) must be gone.
	if strings.Contains(g.String(), "%") {
		t.Errorf("closed p still contains a %% computation:\n%s", g)
	}
	if err := core.VerifyClosed(closed); err != nil {
		t.Errorf("VerifyClosed: %v", err)
	}
}

// TestFigure3Shape checks the closed form of Figure 3's q: everything
// touching x vanishes, the counter loop survives, and the per-iteration
// branch becomes a toss — structurally the same closed program as
// Figure 2's, as the paper observes ("Note that G'_p and G'_q are
// equivalent").
func TestFigure3Shape(t *testing.T) {
	u := core.MustCompileSource(progs.FigureQ)
	closed, st, err := core.Close(u)
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	g := closed.Graph("q")
	if len(g.Params) != 0 {
		t.Errorf("closed q still has parameters %v", g.Params)
	}
	if got := countKind(closed, cfg.NTossSwitch); got != 1 {
		t.Errorf("toss switches = %d, want 1\n%s", got, g)
	}
	// y = x % 2, x = x / 2, and the conditional are eliminated: 3 nodes.
	if st.NodesEliminated != 3 {
		t.Errorf("NodesEliminated = %d, want 3 (y=x%%2, if, x=x/2)\n%s", st.NodesEliminated, g)
	}
	if err := core.VerifyClosed(closed); err != nil {
		t.Errorf("VerifyClosed: %v", err)
	}
}

// TestSection5Examples pins the two worked dataflow examples of §5.
func TestSection5Examples(t *testing.T) {
	t.Run("taint-chain", func(t *testing.T) {
		// a = x%2; b = a+1; c = b; send(out, c): everything is tainted,
		// so all three assignments disappear and the send's argument
		// becomes undef.
		closed, st, err := core.Close(core.MustCompileSource(progs.SimpleTaint))
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		if st.NodesEliminated != 3 {
			t.Errorf("NodesEliminated = %d, want 3\n%s", st.NodesEliminated, closed.Graph("p"))
		}
		if st.ArgsUndefed != 1 {
			t.Errorf("ArgsUndefed = %d, want 1", st.ArgsUndefed)
		}
	})
	t.Run("path-independent", func(t *testing.T) {
		// a=0; if(x>0) b=a-1 else b=a+1; c=b: none of a, b, c are
		// functionally dependent on the environment (dependence is per
		// control path), so all assignments survive; only the
		// conditional becomes a toss.
		closed, st, err := core.Close(core.MustCompileSource(progs.PathIndependent))
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		if st.NodesEliminated != 1 {
			t.Errorf("NodesEliminated = %d, want 1 (just the conditional)\n%s",
				st.NodesEliminated, closed.Graph("p"))
		}
		if got := countKind(closed, cfg.NTossSwitch); got != 1 {
			t.Errorf("toss switches = %d, want 1", got)
		}
		if st.ArgsUndefed != 0 {
			t.Errorf("ArgsUndefed = %d, want 0 (c is path-independent)", st.ArgsUndefed)
		}
	})
}

// TestInterproceduralTaint checks both directions of the fixpoint: the
// tainted argument taints the callee's parameter (which is then
// removed), and the callee's pointer write taints the caller's local.
func TestInterproceduralTaint(t *testing.T) {
	closed, st, err := core.Close(core.MustCompileSource(progs.Interproc))
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	// helper loses v (tainted at the call site) but keeps p; top loses x.
	h := closed.Graph("helper")
	if len(h.Params) != 1 || h.Params[0] != "p" {
		t.Errorf("closed helper params = %v, want [p]", h.Params)
	}
	if len(closed.Graph("top").Params) != 0 {
		t.Errorf("closed top params = %v, want []", closed.Graph("top").Params)
	}
	// r is env-dependent after the call, so the conditional on r becomes
	// a toss in top.
	tosses := 0
	for _, n := range closed.Graph("top").Nodes {
		if n.Kind == cfg.NTossSwitch {
			tosses++
		}
	}
	if tosses != 1 {
		t.Errorf("top toss switches = %d, want 1\n%s", tosses, closed.Graph("top"))
	}
	if st.ParamsRemoved != 2 {
		t.Errorf("ParamsRemoved = %d, want 2 (helper.v, top.x)", st.ParamsRemoved)
	}
	if err := core.VerifyClosed(closed); err != nil {
		t.Errorf("VerifyClosed: %v", err)
	}
}

// TestCloseIdempotent checks that closing a closed program is the
// identity on structure: nothing further is eliminated or inserted.
func TestCloseIdempotent(t *testing.T) {
	for _, src := range []string{progs.FigureP, progs.FigureQ, progs.ProducerConsumer, progs.Router} {
		closed, _, err := core.Close(core.MustCompileSource(src))
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		twice, st, err := core.Close(closed)
		if err != nil {
			t.Fatalf("Close(closed): %v", err)
		}
		if st.NodesEliminated != 0 || st.TossInserted != 0 || st.ParamsRemoved != 0 {
			t.Errorf("closing a closed unit changed it: %s", st)
		}
		n1, a1 := closed.Size()
		n2, a2 := twice.Size()
		if n1 != n2 || a1 != a2 {
			t.Errorf("closed twice: size %d/%d -> %d/%d", n1, a1, n2, a2)
		}
	}
}

// TestBranchingNotIncreased checks the §1 claim: "our transformation
// preserves, or may even reduce, the static degree of branching of the
// original code" — formalized as control-path choices per preserved arc
// (see Stats.PathChoicesOriginal).
func TestBranchingNotIncreased(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"figP", progs.FigureP},
		{"figQ", progs.FigureQ},
		{"producer-consumer", progs.ProducerConsumer},
		{"router", progs.Router},
		{"interproc", progs.Interproc},
		{"deadlock", progs.DeadlockProne},
	} {
		_, st, err := core.Close(core.MustCompileSource(tc.src))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.PathChoicesClosed > st.PathChoicesOriginal {
			t.Errorf("%s: control-path choices grew %d -> %d",
				tc.name, st.PathChoicesOriginal, st.PathChoicesClosed)
		}
	}
}

// TestSwitchOnEnvData: a switch whose tag is environment-dependent is
// eliminated; its case bodies' visible ops survive behind a toss.
func TestSwitchOnEnvData(t *testing.T) {
	closed, st, err := core.Close(core.MustCompileSource(`
chan out[1];
env chan out;
env p.x;
proc p(x) {
    switch (x % 3) {
    case 0:
        send(out, 10);
    case 1:
        send(out, 20);
    default:
        send(out, 30);
    }
}
process p;
`))
	if err != nil {
		t.Fatal(err)
	}
	g := closed.Graph("p")
	toss := 0
	for _, n := range g.Nodes {
		if n.Kind == cfg.NTossSwitch {
			toss++
			if n.TossBound() != 2 {
				t.Errorf("toss bound = %d, want 2 (three arms)", n.TossBound())
			}
		}
	}
	if toss != 1 {
		t.Errorf("tosses = %d, want 1\n%s", toss, g)
	}
	if st.NodesEliminated < 2 {
		t.Errorf("eliminated = %d, want >= 2 (tag hoist + case conds)", st.NodesEliminated)
	}
	if err := core.VerifyClosed(closed); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionSwitch: partitioning applies to switch tags, since the
// desugared cases are constant comparisons.
func TestPartitionSwitch(t *testing.T) {
	u := core.MustCompileSource(`
chan out[1];
env chan out;
env p.t;
proc p(t) {
    switch (t) {
    case 5:
        send(out, 1);
    case 9:
        send(out, 2);
    default:
        send(out, 3);
    }
}
process p;
`)
	closed, _, pst, err := core.ClosePartitioned(u)
	if err != nil {
		t.Fatal(err)
	}
	if pst.Partitioned != 1 {
		t.Fatalf("partition stats = %s (switch tags should qualify)", pst)
	}
	set, _, err := explore.TraceSet(closed, explore.Options{MaxDepth: 20}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Errorf("behaviors = %d, want exactly 3 (partitioning is exact)", len(set))
	}
}
