package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/codegen"
	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/mgenv"
)

// resourceManager is the §7 motivating example: a system receiving time
// requests "whose visible behavior only depends on which of a small set
// of ranges each request falls into".
const resourceManager = `
chan fast[1];
chan mid[1];
chan slow[1];
env chan fast;
env chan mid;
env chan slow;
env rm.t;

proc rm(t) {
    if (t < 10) {
        send(fast, 1);
    } else {
        if (t < 100) {
            send(mid, 1);
        } else {
            send(slow, 1);
        }
    }
}

process rm;
`

// correlated has the same environment-dependent condition twice — the
// "temporal independence" imprecision of §5. Plain closing tosses each
// test independently and invents impossible behaviors; partitioning
// keeps them correlated.
const correlated = `
chan a[1];
chan b[1];
env chan a;
env chan b;
env p.t;

proc p(t) {
    if (t < 10) {
        send(a, 1);
    }
    if (t < 10) {
        send(b, 1);
    }
}

process p;
`

func TestPartitionResourceManager(t *testing.T) {
	u := core.MustCompileSource(resourceManager)
	_, pst := core.Partition(u)
	if pst.Partitioned != 1 || pst.Skipped != 0 {
		t.Fatalf("stats = %s, want 1 partitioned", pst)
	}
	// Constants {10, 100}: representatives 9, 10, 11, 100, 101.
	if pst.Representatives != 5 {
		t.Errorf("representatives = %d, want 5", pst.Representatives)
	}
	if u.IsOpen() && len(u.EnvParams) > 0 {
		t.Errorf("param should have left the interface: %v", u.EnvParams)
	}
	closed, st, err := core.Close(u)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is eliminated: the conditionals survive concretely.
	if st.NodesEliminated != 0 {
		t.Errorf("eliminated = %d, want 0 (partitioning keeps the code)", st.NodesEliminated)
	}
	if err := core.VerifyClosed(closed); err != nil {
		t.Fatal(err)
	}
	// All three behaviors are reachable, and nothing else.
	set, _, err := explore.TraceSet(closed, explore.Options{MaxDepth: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Errorf("traces = %d, want 3 (fast, mid, slow)", len(set))
	}
}

// TestPartitionExactness shows the extension's precision win on the
// correlated program: plain closing over-approximates (4 behaviors),
// partitioned closing is exact (2 behaviors, matching the open system
// over its full domain).
func TestPartitionExactness(t *testing.T) {
	openUnit, info, err := mgenv.ComposeSource(correlated, 32)
	if err != nil {
		t.Fatal(err)
	}
	openSet, _, err := explore.TraceSet(openUnit, explore.Options{MaxDepth: 50}, info.SystemProcs)
	if err != nil {
		t.Fatal(err)
	}

	plain, _, err := core.Close(core.MustCompileSource(correlated))
	if err != nil {
		t.Fatal(err)
	}
	plainSet, _, err := explore.TraceSet(plain, explore.Options{MaxDepth: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}

	part, _, pst, err := core.ClosePartitioned(core.MustCompileSource(correlated))
	if err != nil {
		t.Fatal(err)
	}
	if pst.Partitioned != 1 {
		t.Fatalf("partition stats = %s", pst)
	}
	partSet, _, err := explore.TraceSet(part, explore.Options{MaxDepth: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}

	if len(openSet) != 2 {
		t.Errorf("open behaviors = %d, want 2 (both sends or neither)", len(openSet))
	}
	if len(plainSet) != 4 {
		t.Errorf("plain closed behaviors = %d, want 4 (independent tosses)", len(plainSet))
	}
	if len(partSet) != 2 {
		t.Errorf("partitioned closed behaviors = %d, want 2 (exact)", len(partSet))
	}
	if w, ok := explore.Subset(openSet, partSet); !ok {
		t.Errorf("open trace missing from partitioned set: %s", w)
	}
	if w, ok := explore.Subset(partSet, openSet); !ok {
		t.Errorf("partitioned set has impossible behavior: %s", w)
	}
}

// TestPartitionDisqualification checks that parameters used beyond
// constant comparisons fall back to elimination.
func TestPartitionDisqualification(t *testing.T) {
	for name, src := range map[string]string{
		"arithmetic": `
chan out[1];
env chan out;
env p.t;
proc p(t) {
    var y = t + 1;
    send(out, y);
}
process p;
`,
		"assigned": `
chan out[1];
env chan out;
env p.t;
proc p(t) {
    if (t < 3) {
        t = 0;
    }
    if (t < 5) {
        send(out, 1);
    }
}
process p;
`,
		"escapes-to-call": `
chan out[1];
env chan out;
env p.t;
proc q(v) {
    if (v < 2) {
        send(out, 1);
    }
}
proc p(t) {
    q(t);
}
process p;
`,
		"compared-to-var": `
chan out[1];
env chan out;
env p.t;
proc p(t) {
    var lim = 4;
    if (t < lim) {
        send(out, 1);
    }
}
process p;
`,
	} {
		t.Run(name, func(t *testing.T) {
			u := core.MustCompileSource(src)
			_, pst := core.Partition(u)
			if pst.Partitioned != 0 || pst.Skipped != 1 {
				t.Errorf("stats = %s, want skipped", pst)
			}
			// Plain closing must still work on the unchanged unit.
			closed, _, err := core.Close(u)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.VerifyClosed(closed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPartitionNoComparisons: an input never inspected gets exactly one
// representative and no toss.
func TestPartitionNoComparisons(t *testing.T) {
	u := core.MustCompileSource(`
chan out[1];
env chan out;
env p.t;
proc p(t) {
    send(out, 3);
}
process p;
`)
	_, pst := core.Partition(u)
	if pst.Partitioned != 1 || pst.Representatives != 1 {
		t.Fatalf("stats = %s, want 1 partitioned with 1 representative", pst)
	}
	for _, n := range u.Graph("p").Nodes {
		if n.Kind == cfg.NTossSwitch {
			t.Error("single-cell partition must not introduce a toss")
		}
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionAdjacentConstants: constants {3,4} need no strictly-
// between representative.
func TestPartitionAdjacentConstants(t *testing.T) {
	u := core.MustCompileSource(`
chan out[1];
env chan out;
env p.t;
proc p(t) {
    if (t < 3) {
        send(out, 0);
    }
    if (t == 4) {
        send(out, 1);
    }
}
process p;
`)
	_, pst := core.Partition(u)
	// constants {3,4}: reps 2, 3, 4, 5 (no gap between 3 and 4).
	if pst.Representatives != 4 {
		t.Errorf("representatives = %d, want 4", pst.Representatives)
	}
	closed, _, err := core.Close(u)
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := explore.TraceSet(closed, explore.Options{MaxDepth: 20}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Behaviors: t=2 -> send0; t∈{3,5,...} -> none; t=4 -> send1.
	if len(set) != 3 {
		t.Errorf("behaviors = %d, want 3", len(set))
	}
}

// TestPartitionPropertyExactness is the property-based validation of the
// §7 extension: on random programs whose environment input is used only
// in constant comparisons, partitioned closing reproduces EXACTLY the
// open system's behavior set over a domain spanning all the partition
// cells — not just an over-approximation.
func TestPartitionPropertyExactness(t *testing.T) {
	seeds := 80
	if testing.Short() {
		seeds = 15
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := comparisonOnlyProgram(r)

		// Ground truth over a domain spanning every cell (constants are
		// drawn from [1, 8], so [0, 12) covers below/on/between/above).
		naive, info, err := mgenv.ComposeSource(src, 12)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		openSet, _, err := explore.TraceSet(naive, explore.Options{MaxDepth: 80}, info.SystemProcs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		part, _, pst, err := core.ClosePartitioned(core.MustCompileSource(src))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if pst.Partitioned != 1 {
			t.Fatalf("seed %d: input did not qualify (%s)\n%s", seed, pst, src)
		}
		partSet, _, err := explore.TraceSet(part, explore.Options{MaxDepth: 80}, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		if w, ok := explore.Subset(openSet, partSet); !ok {
			t.Fatalf("seed %d: open behavior missing after partitioning: %s\n%s", seed, w, src)
		}
		if w, ok := explore.Subset(partSet, openSet); !ok {
			t.Fatalf("seed %d: partitioning invented behavior: %s\n%s", seed, w, src)
		}
	}
}

// comparisonOnlyProgram generates a single-process program whose env
// input t is used only in comparisons against constants in [1, 8]:
// random nesting of ifs and switches over t, with constant sends as the
// observable effects.
func comparisonOnlyProgram(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("chan out[1];\nenv chan out;\nenv p.t;\nproc p(t) {\n")
	next := 0
	ops := []string{"<", "<=", "==", "!=", ">", ">="}
	var emit func(ind string, depth int)
	emit = func(ind string, depth int) {
		n := 1 + r.Intn(2)
		for i := 0; i < n; i++ {
			next++
			switch {
			case depth > 0 && r.Intn(3) == 0:
				fmt.Fprintf(&b, "%sswitch (t) {\n", ind)
				fmt.Fprintf(&b, "%scase %d, %d:\n", ind, 1+r.Intn(8), 1+r.Intn(8))
				fmt.Fprintf(&b, "%s    send(out, %d);\n", ind, next)
				if r.Intn(2) == 0 {
					fmt.Fprintf(&b, "%sdefault:\n", ind)
					emit(ind+"    ", depth-1)
				}
				fmt.Fprintf(&b, "%s}\n", ind)
			case depth > 0 && r.Intn(2) == 0:
				fmt.Fprintf(&b, "%sif (t %s %d) {\n", ind, ops[r.Intn(len(ops))], 1+r.Intn(8))
				emit(ind+"    ", depth-1)
				if r.Intn(2) == 0 {
					fmt.Fprintf(&b, "%s} else {\n", ind)
					emit(ind+"    ", depth-1)
				}
				fmt.Fprintf(&b, "%s}\n", ind)
			default:
				fmt.Fprintf(&b, "%ssend(out, %d);\n", ind, next)
			}
		}
	}
	emit("    ", 3)
	b.WriteString("}\nprocess p;\n")
	return b.String()
}

// TestPartitionEntryJoin partitions a parameter whose first statement is
// a loop head, so the start node's successor has another predecessor
// (the back edge): the draw goes between the start node and the loop
// and the back edge still enters the loop head.
func TestPartitionEntryJoin(t *testing.T) {
	src := `
chan out[1];
env chan out;
env p.x;
proc p(x) {
    while (x > 0) {
        send(out, 1);
    }
    send(out, 2);
}
process p;
`
	closed, _, pst, err := core.ClosePartitioned(core.MustCompileSource(src))
	if err != nil {
		t.Fatal(err)
	}
	if pst.Partitioned != 1 {
		t.Fatalf("partitioned %d parameters, want 1", pst.Partitioned)
	}
	want := `proc p():
  n0   start   <start>                                 always->n7
  n1   cond    if x > 0                                true->n2 false->n4
  n2   assign  var __t1 = 1                            always->n3
  n3   call    send(out, __t1)                         always->n1
  n4   assign  var __t2 = 2                            always->n5
  n5   call    send(out, __t2)                         always->n6
  n6   return  return
  n7   toss    switch VS_toss(2)                       toss==0->n8 toss==1->n9 toss==2->n10
  n8   assign  x = -1                                  always->n1
  n9   assign  x = 0                                   always->n1
  n10  assign  x = 1                                   always->n1
`
	if got := trimLines(closed.String()); got != want {
		t.Errorf("closed graph:\n%s\nwant:\n%s", got, want)
	}
}

// TestPartitionDropsDrawnParams: a partitioned parameter becomes a local
// of its procedure. It leaves the parameter list and every call of the
// procedure, the env parameter after it moves down to its index, and
// the emitted program closes again (sem refuses a top-level parameter
// that is not a declared env input). The argument dropped from q's call
// is still evaluated (the normalizer put it in a temporary before the
// call): its bad index traps in the partitioned program as in the plainly
// closed one.
func TestPartitionDropsDrawnParams(t *testing.T) {
	const src = `
chan out[2];
env chan out;
env p.t;
env p.v;
proc p(t, v) {
    if (t < 10) {
        send(out, v);
    }
}
proc q() {
    var a[2];
    var i = 5;
    p(a[i], 7);
}
process p;
process q;
`
	plain, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	u := core.MustCompileSource(src)
	_, pst := core.Partition(u)
	if pst.Partitioned != 1 || pst.Skipped != 1 {
		t.Fatalf("stats = %s, want t partitioned and v skipped", pst)
	}
	if got := strings.Join(u.Graph("p").Params, ","); got != "v" {
		t.Errorf("p's parameters are %q, want v", got)
	}
	if env := u.EnvParams["p"]; len(env) != 1 || !env[0] {
		t.Errorf("p's env parameters are %v, want {0}", env)
	}
	for _, n := range u.Graph("q").Nodes {
		if cs := n.CallStmt(); n.Kind == cfg.NCall && cs.Name.Name == "p" && len(cs.Args) != 1 {
			t.Errorf("q calls p with %d arguments, want 1", len(cs.Args))
		}
	}
	closed, _, err := core.Close(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*cfg.Unit{closed, plain} {
		rep, err := explore.Explore(c, explore.Options{MaxDepth: 20})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Traps == 0 || !strings.Contains(rep.Samples[0].Msg, "array index 5 out of bounds") {
			t.Errorf("q's argument does not trap: %s", rep)
		}
	}
	emitted, err := codegen.Emit(closed)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.CloseSource(emitted); err != nil {
		t.Fatalf("the emitted program does not close again: %v\n%s", err, emitted)
	}
}
