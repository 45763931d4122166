package dataflow_test

import (
	"testing"

	"reclose/internal/core"
	"reclose/internal/dataflow"
	"reclose/internal/progs"
	"reclose/internal/synth"
)

// TestWorkScalesLinearly checks the linearity claim by count, not by
// clock: doubling the program may at most (a little more than) double
// the analysis's work counter. The dense solver this replaced grew 4x
// per doubling on three of the four shapes. (Allocation per node is
// core's TestSpacePerPass.)
func TestWorkScalesLinearly(t *testing.T) {
	for _, shape := range []synth.Shape{synth.StraightLine, synth.Branchy, synth.Loopy, synth.ManyProcs} {
		var prevWork int
		for _, n := range []int{2000, 4000, 8000} {
			u := core.MustCompileSource(synth.Program(shape, n))
			nodes, _ := u.Size()
			work := dataflow.Analyze(u).Work()
			t.Logf("%s n=%d: %d nodes, work %d (%.2f per node)", shape, n, nodes, work, float64(work)/float64(nodes))
			if prevWork != 0 && float64(work) > 2.2*float64(prevWork) {
				t.Errorf("%s n=%d: work %d is more than 2.2x the %d of half the size", shape, n, work, prevWork)
			}
			prevWork = work
		}
	}
}

// TestFactsBuiltOncePerProcedure checks the facts/taint split: however
// often the interprocedural worklist re-runs a procedure's taint pass,
// its context-free facts are built once.
func TestFactsBuiltOncePerProcedure(t *testing.T) {
	u := core.MustCompileSource(synth.Program(synth.ManyProcs, 8000))
	res := dataflow.Analyze(u)
	if got, want := res.FactsBuilt(), len(u.Order); got != want {
		t.Errorf("manyprocs: facts built %d times for %d procedures", got, want)
	}
	if res.Iterations < 2 {
		t.Errorf("manyprocs: %d taint passes, want at least 2", res.Iterations)
	}
	// Callers first: the tainted argument reaches every callee before its
	// first pass, so the chain needs one pass per procedure.
	if res.Iterations != len(u.Order) {
		t.Errorf("manyprocs: %d taint passes for %d procedures in a call chain", res.Iterations, len(u.Order))
	}

	// helper's pointer write makes top's call site a clobber, so top is
	// passed over again once helper is known to compute with env values.
	u = core.MustCompileSource(progs.Interproc)
	res = dataflow.Analyze(u)
	if res.Iterations <= len(u.Order) {
		t.Errorf("interproc: %d taint passes for %d procedures, want a re-run", res.Iterations, len(u.Order))
	}
	if got, want := res.FactsBuilt(), len(u.Order); got != want {
		t.Errorf("interproc: facts built %d times for %d procedures", got, want)
	}
}
