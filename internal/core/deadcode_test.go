package core_test

import (
	"strings"
	"testing"

	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/fiveess"
	"reclose/internal/progs"
)

// TestEliminateDeadResidue: closing removes the uses of y (the
// env-dependent conditional) but leaves its clean definition behind;
// the dead-code pass cleans it up without changing behavior.
func TestEliminateDeadResidue(t *testing.T) {
	src := `
chan out[1];
env chan out;
env p.x;
proc p(x) {
    var y = 5;       // only used by the eliminated conditional
    var z = 1;       // used by the surviving send
    if (x > y) {
        send(out, z);
    } else {
        send(out, z + 1);
    }
}
process p;
`
	closed, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := closed.Size()
	setBefore, _, err := explore.TraceSet(closed, explore.Options{MaxDepth: 20}, 0)
	if err != nil {
		t.Fatal(err)
	}

	removed := core.EliminateDead(closed)
	if removed != 1 {
		t.Errorf("removed = %d, want 1 (var y = 5)\n%s", removed, closed.Graph("p"))
	}
	after, _ := closed.Size()
	if after != before-1 {
		t.Errorf("size %d -> %d, want one fewer node", before, after)
	}
	if err := closed.Validate(); err != nil {
		t.Fatalf("graph broken after elimination: %v\n%s", err, closed.Graph("p"))
	}
	setAfter, _, err := explore.TraceSet(closed, explore.Options{MaxDepth: 20}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := explore.Subset(setBefore, setAfter); !ok {
		t.Errorf("behavior lost: %s", w)
	}
	if w, ok := explore.Subset(setAfter, setBefore); !ok {
		t.Errorf("behavior added: %s", w)
	}
}

// TestEliminateDeadChain: dead definitions feeding only other dead
// definitions are removed transitively (the fixpoint).
func TestEliminateDeadChain(t *testing.T) {
	src := `
chan out[1];
env chan out;
env p.x;
proc p(x) {
    var a = 1;
    var b = a + 1;   // feeds only c
    var c = b + 1;   // feeds only the eliminated conditional
    if (x > c) {
        send(out, 1);
    }
}
process p;
`
	closed, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	removed := core.EliminateDead(closed)
	// a, b, c are all dead once the conditional is gone.
	if removed != 3 {
		t.Errorf("removed = %d, want 3 (the whole chain)\n%s", removed, closed.Graph("p"))
	}
}

// TestEliminateDeadPreservesBehavior on larger closed systems.
func TestEliminateDeadPreservesBehavior(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"figP", progs.FigureP},
		{"path-independent", progs.PathIndependent},
		{"producer-consumer", progs.ProducerConsumer},
		{"forwarder", progs.Forwarder},
		{"fiveess", fiveess.Source(fiveess.Scale("small"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			closed, _, err := core.CloseSource(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			opt := explore.Options{MaxDepth: 120, POR: explore.POROff, NoSleep: true, MaxStates: 200000}
			before, _, err := explore.TraceSet(closed, opt, 0)
			if err != nil {
				t.Fatal(err)
			}
			core.EliminateDead(closed)
			if err := closed.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := core.VerifyClosed(closed); err != nil {
				t.Fatal(err)
			}
			after, _, err := explore.TraceSet(closed, opt, 0)
			if err != nil {
				t.Fatal(err)
			}
			if w, ok := explore.Subset(before, after); !ok {
				t.Errorf("behavior lost: %s", w)
			}
			if w, ok := explore.Subset(after, before); !ok {
				t.Errorf("behavior added: %s", w)
			}
		})
	}
}

// TestEliminateDeadKeepsLiveCode: nothing is removed from a program with
// no dead assignments.
func TestEliminateDeadKeepsLiveCode(t *testing.T) {
	unit := core.MustCompileSource(progs.Philosophers(3))
	if removed := core.EliminateDead(unit); removed != 0 {
		t.Errorf("removed %d nodes from a fully live program", removed)
	}
	// The pipeline's per-stage "var v;" zero-initializations are dead
	// (recv always overwrites them before use), but the sink's reaches
	// its assertion along the loop-exit path and stays; loop counters
	// are live everywhere.
	unit2 := core.MustCompileSource(progs.Pipeline(2, 2))
	if removed := core.EliminateDead(unit2); removed != 2 {
		t.Errorf("removed %d nodes from the pipeline, want 2 (stage-local dead zero-inits)", removed)
	}
}

// TestEliminateDeadShapes pins the graph EliminateDead leaves behind in
// the places an arc must be moved past dead nodes: two dead nodes in a
// row, a dead node on a loop's back edge, and a dead node entered from
// the start node. The goldens are the listings the pass produced when
// it still spliced nodes out through predecessor lists.
func TestEliminateDeadShapes(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		removed   int
		want      string
	}{
		{"two in a row", `
chan out[1];
proc p() {
    var k = 3;
    send(out, k);
    var a = 1;
    var b = 2;
    send(out, k);
}
process p;
`, 2, `
proc p():
  n0   start   <start>                                 always->n1
  n1   assign  var k = 3                               always->n2
  n2   call    send(out, k)                            always->n3
  n3   call    send(out, k)                            always->n4
  n4   return  return
`},
		{"back edge", `
chan out[1];
proc p() {
    var i = 0;
    var t = 0;
    while (i < 3) {
        send(out, i);
        i = i + 1;
        t = i;
    }
    send(out, i);
}
process p;
`, 2, `
proc p():
  n0   start   <start>                                 always->n1
  n1   assign  var i = 0                               always->n2
  n2   cond    if i < 3                                true->n3 false->n5
  n3   call    send(out, i)                            always->n4
  n4   assign  i = i + 1                               always->n2
  n5   call    send(out, i)                            always->n6
  n6   return  return
`},
		{"after start", `
chan out[1];
proc p() {
    var d = 7;
    send(out, 1);
}
process p;
`, 1, `
proc p():
  n0   start   <start>                                 always->n1
  n1   assign  var __t1 = 1                            always->n2
  n2   call    send(out, __t1)                         always->n3
  n3   return  return
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := core.MustCompileSource(tc.src)
			if removed := core.EliminateDead(u); removed != tc.removed {
				t.Errorf("removed %d nodes, want %d", removed, tc.removed)
			}
			if err := u.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := trimLines(u.String()); got != strings.TrimPrefix(tc.want, "\n") {
				t.Errorf("graph after elimination:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// trimLines drops the padding a listing leaves at the end of its lines.
func trimLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}
