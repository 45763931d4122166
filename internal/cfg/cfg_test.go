package cfg_test

import (
	"strings"
	"testing"
	"unsafe"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/normalize"
	"reclose/internal/parser"
	"reclose/internal/progs"
	"reclose/internal/sem"
	"reclose/internal/token"
)

func buildProc(t *testing.T, body string) *cfg.Graph {
	t.Helper()
	src := "chan c[1];\nproc f(x) {\n" + body + "\n}"
	prog := parser.MustParse(src)
	normalize.Checked(prog, sem.MustCheck(prog))
	g := cfg.Build(prog.Proc("f"))
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid graph: %v\n%s", err, g)
	}
	return g
}

// preds returns every node's predecessors by node ID, one entry per arc.
// Graphs keep no predecessor lists, so the tests reverse the Out lists.
func preds(g *cfg.Graph) [][]*cfg.Node {
	out := make([][]*cfg.Node, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, a := range n.Out {
			out[a.To.ID] = append(out[a.To.ID], n)
		}
	}
	return out
}

func countKind(g *cfg.Graph, k cfg.NodeKind) int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind == k {
			n++
		}
	}
	return n
}

func TestStraightLine(t *testing.T) {
	g := buildProc(t, "var y = x;\ny = y + 1;\nsend(c, y);")
	// start, 2 assigns, 1 call, implicit return.
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes = %d, want 5\n%s", len(g.Nodes), g)
	}
	if g.Entry.Kind != cfg.NStart {
		t.Errorf("entry = %v", g.Entry.Kind)
	}
	if countKind(g, cfg.NReturn) != 1 {
		t.Errorf("returns = %d, want 1 (implicit)", countKind(g, cfg.NReturn))
	}
}

func TestIfElseShape(t *testing.T) {
	g := buildProc(t, "var y;\nif (x > 0) { y = 1; } else { y = 2; }\nsend(c, y);")
	cond := -1
	for _, n := range g.Nodes {
		if n.Kind == cfg.NCond {
			cond = n.ID
			if len(n.Out) != 2 {
				t.Fatalf("cond out-degree = %d", len(n.Out))
			}
			// Both branches converge on the send.
			t1 := n.Out[0].To
			t2 := n.Out[1].To
			if t1.Succ() == nil || t2.Succ() == nil || t1.Succ() != t2.Succ() {
				t.Errorf("branches do not converge\n%s", g)
			}
		}
	}
	if cond < 0 {
		t.Fatal("no cond node")
	}
}

func TestWhileLoopShape(t *testing.T) {
	g := buildProc(t, "while (x > 0) { x = x - 1; }")
	for _, n := range g.Nodes {
		if n.Kind == cfg.NCond {
			var trueTo, falseTo *cfg.Node
			for _, a := range n.Out {
				if a.Label.Kind == cfg.LTrue {
					trueTo = a.To
				} else {
					falseTo = a.To
				}
			}
			// Body's assign loops back to the cond.
			if trueTo.Kind != cfg.NAssign || trueTo.Succ() != n {
				t.Errorf("loop body does not return to the condition\n%s", g)
			}
			if falseTo.Kind != cfg.NReturn {
				t.Errorf("false branch should exit to return, got %v", falseTo.Kind)
			}
		}
	}
}

func TestForLoopShape(t *testing.T) {
	g := buildProc(t, "var i;\nfor (i = 0; i < 3; i = i + 1) { send(c, i); }")
	// var i, init assign, cond, send, post assign, return, start.
	if got := countKind(g, cfg.NAssign); got != 3 {
		t.Errorf("assigns = %d, want 3 (decl, init, post)\n%s", got, g)
	}
	if got := countKind(g, cfg.NCond); got != 1 {
		t.Errorf("conds = %d, want 1", got)
	}
}

func TestForWithoutCond(t *testing.T) {
	g := buildProc(t, "for (;;) { send(c, x); }")
	// The synthesized true condition keeps the graph well-formed.
	if got := countKind(g, cfg.NCond); got != 1 {
		t.Errorf("conds = %d, want 1 (synthesized true)", got)
	}
	if !strings.Contains(g.String(), "if true") {
		t.Errorf("missing synthesized condition:\n%s", g)
	}
}

func TestExplicitReturnAndExit(t *testing.T) {
	g := buildProc(t, "if (x > 0) { return; }\nexit;")
	if countKind(g, cfg.NReturn) != 1 || countKind(g, cfg.NExit) != 1 {
		t.Errorf("return/exit = %d/%d, want 1/1\n%s",
			countKind(g, cfg.NReturn), countKind(g, cfg.NExit), g)
	}
}

func TestUnreachableCodeTolerated(t *testing.T) {
	g := buildProc(t, "return;\nx = 1;")
	// The dead assignment exists but is disconnected; the graph still
	// validates.
	if countKind(g, cfg.NAssign) != 1 {
		t.Errorf("dead assign missing\n%s", g)
	}
}

func TestCompileUnit(t *testing.T) {
	prog := parser.MustParse(progs.ProducerConsumer)
	info := sem.MustCheck(prog)
	normalize.Checked(prog, info)
	u := cfg.CompileUnit(prog, info)
	if err := u.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(u.Order) != 2 || u.Order[0] != "producer" || u.Order[1] != "consumer" {
		t.Errorf("order = %v", u.Order)
	}
	if len(u.Processes) != 2 {
		t.Errorf("processes = %v", u.Processes)
	}
	if len(u.Objects) != 4 {
		t.Errorf("objects = %v", u.Objects)
	}
	if !u.IsOpen() {
		t.Error("producer-consumer is open (env chans)")
	}
	nodes, arcs := u.Size()
	if nodes == 0 || arcs == 0 {
		t.Errorf("size = %d/%d", nodes, arcs)
	}
}

func TestArcLabelInvariant(t *testing.T) {
	// Every non-terminal node's arcs partition the successor choice:
	// check over all example programs via Validate plus a structural
	// sweep.
	for _, src := range []string{
		progs.FigureP, progs.FigureQ, progs.ProducerConsumer, progs.Router,
		progs.Interproc, progs.DeadlockProne, progs.AssertViolation,
	} {
		prog := parser.MustParse(src)
		info := sem.MustCheck(prog)
		normalize.Checked(prog, info)
		u := cfg.CompileUnit(prog, info)
		if err := u.Validate(); err != nil {
			t.Errorf("%v", err)
		}
		for _, name := range u.Order {
			g := u.Procs[name]
			for _, n := range g.Nodes {
				for _, a := range n.Out {
					if id := a.To.ID; id < 0 || id >= len(g.Nodes) || g.Nodes[id] != a.To {
						t.Errorf("arc out of %s n%d has a target outside the graph", name, n.ID)
					}
				}
			}
		}
	}
}

// TestValidateRejects builds, for each rule no compiled program breaks,
// a graph that breaks it, and checks that Validate names the defect.
func TestValidateRejects(t *testing.T) {
	var at token.Pos
	always, yes := cfg.Label{Kind: cfg.LAlways}, cfg.Label{Kind: cfg.LTrue}
	// startThen returns a graph whose start node leads to a node of kind
	// k, and a return node.
	startThen := func(k cfg.NodeKind) (g *cfg.Graph, n, ret *cfg.Node) {
		g = &cfg.Graph{ProcName: "f"}
		g.Entry = g.NewNode(cfg.NStart, at)
		n = g.NewNode(k, at)
		ret = g.NewNode(cfg.NReturn, at)
		g.Connect(g.Entry, n, always)
		return g, n, ret
	}
	for _, c := range []struct {
		name  string
		build func() *cfg.Graph
		want  string
	}{
		{"arc to a foreign node that shares an ID", func() *cfg.Graph {
			g, n, _ := startThen(cfg.NAssign)
			other, _, _ := startThen(cfg.NReturn)
			g.Connect(n, other.Nodes[2], always) // n2 in both graphs
			return g
		}, "arc to foreign node"},
		{"conditional with two true arcs", func() *cfg.Graph {
			g, n, ret := startThen(cfg.NCond)
			g.Connect(n, ret, yes)
			g.Connect(n, ret, yes)
			return g
		}, "one true and one false arc"},
		{"toss with a duplicate outcome", func() *cfg.Graph {
			g, n, ret := startThen(cfg.NTossSwitch)
			g.Connect(n, ret, cfg.Label{Kind: cfg.LToss, K: 1})
			g.Connect(n, ret, cfg.Label{Kind: cfg.LToss, K: 1})
			return g
		}, "duplicate outcome 1"},
		{"toss with an outcome past its bound", func() *cfg.Graph {
			g, n, ret := startThen(cfg.NTossSwitch)
			g.Connect(n, ret, cfg.Label{Kind: cfg.LToss, K: 0})
			g.Connect(n, ret, cfg.Label{Kind: cfg.LToss, K: 2})
			return g
		}, "(toss 1) has outcome 2"},
		{"toss with no arcs", func() *cfg.Graph {
			g, _, _ := startThen(cfg.NTossSwitch)
			return g
		}, "at least one successor"},
		{"start node with two arcs", func() *cfg.Graph {
			g, _, ret := startThen(cfg.NReturn)
			g.Connect(g.Entry, ret, always)
			return g
		}, "exactly one unconditional successor, has 2 arc(s)"},
	} {
		err := c.build().Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestGraphString(t *testing.T) {
	g := buildProc(t, "var y = x;\nsend(c, y);")
	s := g.String()
	for _, want := range []string{"proc f(x):", "<start>", "var y = x", "send(c, y)", "return"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestVarArrayNode(t *testing.T) {
	g := buildProc(t, "var a[4];\na[0] = x;\nsend(c, a[0]);")
	found := false
	for _, n := range g.Nodes {
		if n.Kind == cfg.NAssign {
			if vs, ok := n.Stmt.(*ast.VarStmt); ok && vs.Size != nil {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("array declaration node missing\n%s", g)
	}
}

func TestDotOutput(t *testing.T) {
	prog := parser.MustParse(progs.FigureP)
	info := sem.MustCheck(prog)
	normalize.Checked(prog, info)
	u := cfg.CompileUnit(prog, info)
	dot := u.Dot()
	for _, want := range []string{
		`digraph "p"`, "shape=diamond", "shape=ellipse", "shape=doublecircle",
		"n0 ->", "label=\"true\"", "label=\"false\"",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Every node and arc appears.
	g := u.Graph("p")
	nodes, arcs := g.Size()
	if got := strings.Count(g.Dot(), "shape="); got != nodes {
		t.Errorf("DOT nodes = %d, want %d", got, nodes)
	}
	if got := strings.Count(g.Dot(), "->"); got != arcs {
		t.Errorf("DOT arcs = %d, want %d", got, arcs)
	}
}

// TestRepresentationSize pins what one node, one arc and one source
// position cost: the closer keeps every CFG node alive until the end of
// closing, so these sizes set its peak memory.
func TestRepresentationSize(t *testing.T) {
	if got := unsafe.Sizeof(cfg.Node{}); got > 80 {
		t.Errorf("cfg.Node is %d bytes, want at most 80", got)
	}
	if got := unsafe.Sizeof(cfg.Arc{}); got != 16 {
		t.Errorf("cfg.Arc is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(token.Pos{}); got != 12 {
		t.Errorf("token.Pos is %d bytes, want 12", got)
	}
}
