package cfg_test

import (
	"testing"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/normalize"
	"reclose/internal/parser"
	"reclose/internal/sem"
)

func TestSwitchShape(t *testing.T) {
	g := buildProc(t, `
switch (x) {
case 1:
    send(c, 1);
case 2, 3:
    send(c, 2);
default:
    send(c, 0);
}
send(c, 9);
`)
	// Two condition nodes (case 1; case 2,3), three sends in arms plus
	// the trailing send.
	if got := countKind(g, cfg.NCond); got != 2 {
		t.Errorf("conds = %d, want 2\n%s", got, g)
	}
	if got := countKind(g, cfg.NCall); got != 4 {
		t.Errorf("calls = %d, want 4\n%s", got, g)
	}
	// All arms converge on the trailing send: it must have 3 in-arcs.
	pred := preds(g)
	for _, n := range g.Nodes {
		if n.Kind != cfg.NCall {
			continue
		}
		cs := n.CallStmt()
		if len(cs.Args) == 2 && ast.FormatExpr(cs.Args[1]) == "9" {
			if len(pred[n.ID]) != 3 {
				t.Errorf("join send has %d in-arcs, want 3\n%s", len(pred[n.ID]), g)
			}
		}
	}
}

func TestSwitchNoDefaultFallsOut(t *testing.T) {
	g := buildProc(t, `
switch (x) {
case 1:
    send(c, 1);
}
send(c, 9);
`)
	// The false arc of the single case reaches the trailing send.
	if got := countKind(g, cfg.NCond); got != 1 {
		t.Fatalf("conds = %d\n%s", got, g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBreakInLoop(t *testing.T) {
	g := buildProc(t, `
while (x > 0) {
    if (x == 2) {
        break;
    }
    x = x - 1;
}
send(c, x);
`)
	if err := g.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, g)
	}
	// The send join is reached both from the loop condition (false) and
	// the break (true branch of the inner if).
	pred := preds(g)
	for _, n := range g.Nodes {
		if n.Kind == cfg.NCall {
			if len(pred[n.ID]) != 2 {
				t.Errorf("send has %d in-arcs, want 2 (loop exit + break)\n%s", len(pred[n.ID]), g)
			}
		}
	}
}

func TestContinueInWhile(t *testing.T) {
	g := buildProc(t, `
while (x > 0) {
    x = x - 1;
    if (x == 1) {
        continue;
    }
    send(c, x);
}
`)
	if err := g.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, g)
	}
	// The loop condition receives arcs from: procedure entry, the body
	// end (send), and the continue.
	pred := preds(g)
	for _, n := range g.Nodes {
		if n.Kind == cfg.NCond && len(n.Out) == 2 {
			isLoop := false
			for _, p := range pred[n.ID] {
				if p.Kind == cfg.NCall {
					isLoop = true
				}
			}
			if isLoop && len(pred[n.ID]) != 3 {
				t.Errorf("loop cond has %d in-arcs, want 3\n%s", len(pred[n.ID]), g)
			}
		}
	}
}

func TestContinueInForTargetsPost(t *testing.T) {
	g := buildProc(t, `
var i;
for (i = 0; i < 3; i = i + 1) {
    if (i == 1) {
        continue;
    }
    send(c, i);
}
`)
	if err := g.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, g)
	}
	// The post assignment (i = i + 1) receives the body end AND the
	// continue: 2 in-arcs.
	pred := preds(g)
	for _, n := range g.Nodes {
		if n.Kind != cfg.NAssign {
			continue
		}
		if len(pred[n.ID]) == 2 {
			return // found the post node
		}
	}
	t.Errorf("no post node with 2 in-arcs (continue must target the post)\n%s", g)
}

func TestBreakInSwitchInsideLoop(t *testing.T) {
	// break inside a switch exits the switch, not the loop; continue
	// inside the switch continues the loop.
	g := buildProc(t, `
while (x > 0) {
    switch (x) {
    case 1:
        break;
    case 2:
        continue;
    }
    x = x - 1;
}
`)
	if err := g.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, g)
	}
}

func TestSwitchTagNormalized(t *testing.T) {
	// A compound tag is hoisted so it is evaluated once.
	src := `chan c[1];
proc f(x) {
    switch (x + 1) {
    case 1:
        send(c, 1);
    case 2:
        send(c, 2);
    }
}`
	prog := parser.MustParse(src)
	normalize.Checked(prog, sem.MustCheck(prog))
	g := cfg.Build(prog.Proc("f"))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Three hoist assignments: the tag plus the two literal send
	// arguments (the paper requires every call argument to be a
	// variable).
	if got := countKind(g, cfg.NAssign); got != 3 {
		t.Errorf("assigns = %d, want 3 (tag + 2 literal args)\n%s", got, g)
	}
	// The tag hoist must appear exactly once, before the first cond.
	first := g.Entry.Succ()
	if first == nil || first.Kind != cfg.NAssign {
		t.Fatalf("entry successor is not the hoisted tag\n%s", g)
	}
}
