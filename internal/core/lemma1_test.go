package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/mgenv"
)

// TestLemma1DynamicDependence validates the static analysis against
// ground-truth dynamic functional dependence (Lemma 1 / Theorem 3 of the
// paper): V_I must over-approximate the variables whose values actually
// depend on the environment input.
//
// Setup: random straight-line programs (a single control path, so
// functional dependence per the paper's definition coincides with plain
// input-dependence). Each program ends by sending every variable on an
// env-facing output channel. Ground truth: run the open program under
// the explicit environment for every input in a domain and see which
// sent positions vary. Static claim under test: every varying position
// must have been replaced by undef in the closed program (i.e. its
// variable was in V_I at the send).
func TestLemma1DynamicDependence(t *testing.T) {
	const (
		seeds  = 150
		domain = 5
		nVars  = 5
		nStmts = 12
	)
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src, vars := straightLineProgram(r, nVars, nStmts)

		// Ground truth: one deterministic trace per input value.
		naive, info, err := mgenv.ComposeSource(src, domain)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		open, rep, err := explore.TraceLists(naive, explore.Options{MaxDepth: 100}, info.SystemProcs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Traps != 0 {
			t.Fatalf("seed %d: open program trapped\n%s", seed, src)
		}
		if len(open) == 0 {
			t.Fatalf("seed %d: no open traces", seed)
		}
		for _, tr := range open {
			if len(tr.Events) != len(vars) {
				t.Fatalf("seed %d: trace length %d, want %d (straight line!)", seed, len(tr.Events), len(vars))
			}
		}
		dynamic := make([]bool, len(vars)) // position varies across inputs
		for i := range vars {
			vals := map[string]bool{}
			for _, tr := range open {
				vals[tr.Events[i]] = true
			}
			dynamic[i] = len(vals) > 1
		}

		// Closed program: a single path (no control flow at all).
		closedUnit, _, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		closed, _, err := explore.TraceLists(closedUnit, explore.Options{MaxDepth: 100}, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(closed) != 1 {
			t.Fatalf("seed %d: closed straight-line program has %d traces, want 1", seed, len(closed))
		}
		for i := range vars {
			undef := strings.HasSuffix(closed[0].Events[i], "=undef")
			if dynamic[i] && !undef {
				t.Errorf("seed %d: Lemma 1 violated: %s dynamically depends on the input but survived concretely (%s)\n%s",
					seed, vars[i], closed[0].Events[i], src)
			}
		}
	}
}

// straightLineProgram emits a single-process program: random assignments
// over nVars variables (seeded from the env input x), then one send per
// variable. Returns the source and the variable names in send order.
func straightLineProgram(r *rand.Rand, nVars, nStmts int) (string, []string) {
	var b strings.Builder
	b.WriteString("chan out[1];\nenv chan out;\nenv p.x;\nproc p(x) {\n")
	vars := make([]string, nVars)
	for i := range vars {
		vars[i] = fmt.Sprintf("v%d", i)
		// Roughly half the variables start from the input.
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, "    var %s = x %% %d;\n", vars[i], 2+r.Intn(3))
		} else {
			fmt.Fprintf(&b, "    var %s = %d;\n", vars[i], r.Intn(5))
		}
	}
	expr := func() string {
		pick := func() string {
			if r.Intn(4) == 0 {
				return fmt.Sprintf("%d", r.Intn(5))
			}
			return vars[r.Intn(nVars)]
		}
		switch r.Intn(4) {
		case 0:
			return fmt.Sprintf("%s + %s", pick(), pick())
		case 1:
			return fmt.Sprintf("%s - %s", pick(), pick())
		case 2:
			return fmt.Sprintf("%s * %s", pick(), pick())
		default:
			return fmt.Sprintf("%s %% %d", pick(), 2+r.Intn(3))
		}
	}
	for i := 0; i < nStmts; i++ {
		fmt.Fprintf(&b, "    %s = %s;\n", vars[r.Intn(nVars)], expr())
	}
	for _, v := range vars {
		fmt.Fprintf(&b, "    send(out, %s);\n", v)
	}
	b.WriteString("}\nprocess p;\n")
	return b.String(), vars
}
