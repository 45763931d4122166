package randprog_test

import (
	"math/rand"
	"testing"

	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/mgenv"
	"reclose/internal/randprog"
)

// TestGeneratedProgramsCompileAndClose checks the generator's basic
// guarantee across many seeds: every program survives the whole
// pipeline, and the closed result passes the Lemma 5 validator.
func TestGeneratedProgramsCompileAndClose(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := randprog.Generate(r, randprog.Config{})
		closed, _, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if err := core.VerifyClosed(closed); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	}
}

// TestPropertyCloseIdempotent: closing a closed random program changes
// nothing.
func TestPropertyCloseIdempotent(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := randprog.Generate(r, randprog.Config{})
		closed, _, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, st, err := core.Close(closed)
		if err != nil {
			t.Fatalf("seed %d: re-close: %v", seed, err)
		}
		if st.NodesEliminated != 0 || st.TossInserted != 0 || st.ParamsRemoved != 0 || st.ArgsUndefed != 0 {
			t.Fatalf("seed %d: closing a closed program changed it: %s\n%s", seed, st, src)
		}
	}
}

// TestPropertyBranchingNotIncreased: the §1 claim on random programs.
func TestPropertyBranchingNotIncreased(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := randprog.Generate(r, randprog.Config{})
		_, st, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.PathChoicesClosed > st.PathChoicesOriginal {
			t.Fatalf("seed %d: control-path choices grew %d -> %d\n%s",
				seed, st.PathChoicesOriginal, st.PathChoicesClosed, src)
		}
	}
}

// TestPropertyTheorem6 is the end-to-end soundness property on random
// programs: every complete visible trace of the naive composition
// S × E_S (domain 2) is matched — up to eliminated data — by a trace of
// the closed transformation S'. An under-approximation anywhere in the
// analysis or the transformation shows up here as a missing trace. On
// the same seeds it checks Theorem 7: a deadlock or an assertion
// violation of S × E_S is found in S' too. A seed where either search
// was cut proves nothing; those are counted, and more than a tenth of
// them fails the test.
func TestPropertyTheorem6(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	const (
		domain    = 2
		maxDepth  = 48
		maxStates = 300000
	)
	var checked, deadlocks, violations int
	var cut []int
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := randprog.Generate(r, randprog.Config{Processes: 2, MaxStmts: 5})

		naive, info, err := mgenv.ComposeSource(src, domain)
		if err != nil {
			t.Fatalf("seed %d: compose: %v\n%s", seed, err, src)
		}
		full := explore.Options{MaxDepth: maxDepth, MaxStates: maxStates, POR: explore.POROff, NoSleep: true}
		open, openRep, err := explore.TraceLists(naive, full, info.SystemProcs)
		if err != nil {
			t.Fatalf("seed %d: explore naive: %v\n%s", seed, err, src)
		}
		closedUnit, _, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("seed %d: close: %v\n%s", seed, err, src)
		}
		closed, closedRep, err := explore.TraceLists(closedUnit, full, 0)
		if err != nil {
			t.Fatalf("seed %d: explore closed: %v\n%s", seed, err, src)
		}
		if openRep.Incomplete || closedRep.Incomplete {
			cut = append(cut, seed)
			continue
		}
		if openRep.Traps != 0 {
			t.Fatalf("seed %d: open program trapped (generator guarantee broken): %v\n%s",
				seed, openRep.Samples, src)
		}
		if openRep.Deadlocks > 0 {
			deadlocks++
			if closedRep.Deadlocks == 0 {
				t.Errorf("seed %d: Theorem 7 violated: deadlock lost by the transformation\n%s", seed, src)
			}
		}
		if openRep.Violations > 0 {
			violations++
			if closedRep.Violations == 0 {
				t.Errorf("seed %d: Theorem 7 violated: assertion violation lost by the transformation\n%s", seed, src)
			}
		}
		if len(open) == 0 {
			continue
		}
		checked++
		if w, ok := explore.WildcardSubset(open, closed); !ok {
			t.Fatalf("seed %d: open trace not matched by closed system:\n  %s\nprogram:\n%s",
				seed, w, src)
		}
	}
	t.Logf("%d/%d seeds compared; %d cut %v; %d with a naive deadlock, %d with a naive violation",
		checked, n, len(cut), cut, deadlocks, violations)
	if len(cut) > n/10 {
		t.Errorf("%d of %d seeds cut (%v): the bounds no longer decide the property", len(cut), n, cut)
	}
	if checked < n/3 {
		t.Errorf("only %d/%d seeds produced comparable trace sets; generator or bounds too tight", checked, n)
	}
}

// TestGeneratorDeterministic: the same seed yields the same program.
func TestGeneratorDeterministic(t *testing.T) {
	a := randprog.Generate(rand.New(rand.NewSource(7)), randprog.Config{})
	b := randprog.Generate(rand.New(rand.NewSource(7)), randprog.Config{})
	if a != b {
		t.Error("generator is not deterministic for a fixed seed")
	}
	c := randprog.Generate(rand.New(rand.NewSource(8)), randprog.Config{})
	if a == c {
		t.Error("different seeds produced identical programs (suspicious)")
	}
}
