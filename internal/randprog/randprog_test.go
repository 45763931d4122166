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

// preservation is what checkPreservation found on one seed.
type preservation struct {
	cut, compared, deadlock, violation bool
}

// checkPreservation is the end-to-end soundness property on the random
// program of seed: every complete visible trace of the naive
// composition S × E_S at the given domain is matched — up to eliminated
// data — by a trace of the closed transformation S' (Theorem 6), and
// each deadlock or assertion violation trace of S × E_S so by a trace of
// S' that ends the same way (Theorem 7). Close(S) must be a refinement-sound abstraction of
// S × E_S. An under-approximation anywhere in the analysis or the
// transformation shows up as a missing trace or incident. A seed where
// either search was cut proves nothing and asserts nothing.
func checkPreservation(t *testing.T, seed int64, domain int) preservation {
	t.Helper()
	const (
		maxDepth  = 48
		maxStates = 300000
	)
	src := randprog.Generate(rand.New(rand.NewSource(seed)), randprog.Config{Processes: 2, MaxStmts: 5})
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
		return preservation{cut: true}
	}
	if openRep.Traps != 0 {
		t.Fatalf("seed %d: open program trapped (generator guarantee broken): %v\n%s",
			seed, openRep.Samples, src)
	}
	p := preservation{deadlock: openRep.Deadlocks > 0, violation: openRep.Violations > 0, compared: len(open) > 0}
	if w, ok := explore.IncidentsMatched(open, closed); !ok {
		t.Errorf("seed %d domain %d: Theorem 7 violated: no closed trace of the same kind matches\n  %s\nprogram:\n%s", seed, domain, w, src)
	}
	if w, ok := explore.WildcardSubset(open, closed); p.compared && !ok {
		t.Fatalf("seed %d domain %d: open trace not matched by closed system:\n  %s\nprogram:\n%s",
			seed, domain, w, src)
	}
	return p
}

// TestPropertyTheorem6 checks preservation over the first n randprog
// seeds at domain 2. More than a tenth of them cut fails the test.
func TestPropertyTheorem6(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 15
	}
	var compared, deadlocks, violations int
	var cut []int64
	for seed := int64(0); seed < int64(n); seed++ {
		p := checkPreservation(t, seed, 2)
		if p.cut {
			cut = append(cut, seed)
		}
		compared += b2i(p.compared)
		deadlocks += b2i(p.deadlock)
		violations += b2i(p.violation)
	}
	t.Logf("%d/%d seeds compared; %d cut %v; %d with a naive deadlock, %d with a naive violation",
		compared, n, len(cut), cut, deadlocks, violations)
	if len(cut) > n/10 {
		t.Errorf("%d of %d seeds cut (%v): the bounds no longer decide the property", len(cut), n, cut)
	}
	if compared < n/3 {
		t.Errorf("only %d/%d seeds produced comparable trace sets; generator or bounds too tight", compared, n)
	}
}

// FuzzClosePreservation is checkPreservation over any seed, at domain 2
// or 3. A cut input passes.
func FuzzClosePreservation(f *testing.F) {
	for seed := int64(0); seed < 60; seed++ {
		f.Add(seed, uint8(0))
	}
	// The seeds TestPropertyTheorem6 cuts at domain 2, at domain 3.
	f.Add(int64(23), uint8(1))
	f.Add(int64(31), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, domain uint8) {
		checkPreservation(t, seed, 2+int(domain%2))
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
