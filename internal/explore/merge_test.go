package explore

import (
	"fmt"
	"testing"

	"reclose/internal/progs"
)

// testSites compiles a small closed program and returns its site table
// and process count, for building accumulators in isolation.
func testSites(t *testing.T) (*siteTable, int) {
	t.Helper()
	closed := mustClose(t, progs.DeadlockProne)
	return newSiteTable(closed), len(closed.Processes)
}

// TestAccumAdd is a table-driven check of the counter merge: sums for
// the additive counters, max for MaxDepth, min-of-nonzero for
// StatesAtFirstIncident.
func TestAccumAdd(t *testing.T) {
	sites, procs := testSites(t)
	cases := []struct {
		name string
		in   []Counters
		want Counters
	}{
		{
			name: "empty reports",
			in:   []Counters{{}, {}, {}},
			want: Counters{},
		},
		{
			name: "single report passes through",
			in:   []Counters{{States: 10, Transitions: 9, Paths: 2, MaxDepth: 5, Deadlocks: 1}},
			want: Counters{States: 10, Transitions: 9, Paths: 2, MaxDepth: 5, Deadlocks: 1},
		},
		{
			name: "counters sum, depth maxes",
			in: []Counters{
				{States: 10, Transitions: 9, Paths: 2, Replays: 1, ReplaySteps: 4, MaxDepth: 5},
				{States: 3, Transitions: 2, Paths: 1, Replays: 2, ReplaySteps: 6, MaxDepth: 9},
				{States: 1, MaxDepth: 2},
			},
			want: Counters{States: 14, Transitions: 11, Paths: 3, Replays: 3, ReplaySteps: 10, MaxDepth: 9},
		},
		{
			name: "incident kinds sum independently",
			in: []Counters{
				{Deadlocks: 1, Violations: 2, Traps: 3},
				{Divergences: 4, InternalErrors: 5, Violations: 1},
			},
			want: Counters{Deadlocks: 1, Violations: 3, Traps: 3, Divergences: 4, InternalErrors: 5},
		},
		{
			name: "states-at-first-incident: zero never wins",
			in:   []Counters{{StatesAtFirstIncident: 0}, {StatesAtFirstIncident: 7}, {StatesAtFirstIncident: 0}},
			want: Counters{StatesAtFirstIncident: 7},
		},
		{
			name: "states-at-first-incident: smallest non-zero wins",
			in:   []Counters{{StatesAtFirstIncident: 9}, {StatesAtFirstIncident: 3}, {StatesAtFirstIncident: 5}},
			want: Counters{StatesAtFirstIncident: 3},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := newAccum(Options{MaxIncidents: 4}, sites, procs)
			for i := range c.in {
				a.rep.add(&c.in[i])
			}
			if got := a.rep.Counters; got != c.want {
				t.Errorf("merged = %+v, want %+v", got, c.want)
			}
		})
	}
}

// TestDedupeSamples pins the sample set-union semantics: adjacent
// duplicates (same kind, msg, depth, decisions — what a stale snapshot
// could replay) collapse; anything differing in any component survives.
func TestDedupeSamples(t *testing.T) {
	mk := func(kind LeafKind, msg string, depth int, dec ...int) *Incident {
		in := &Incident{Kind: kind, Msg: msg, Depth: depth}
		for _, v := range dec {
			in.Decisions = append(in.Decisions, Decision{Value: v})
		}
		return in
	}
	cases := []struct {
		name string
		in   []*Incident
		want int
	}{
		{"empty", nil, 0},
		{"single", []*Incident{mk(LeafDeadlock, "d", 3, 1)}, 1},
		{"exact duplicate collapses", []*Incident{
			mk(LeafDeadlock, "d", 3, 1, 2),
			mk(LeafDeadlock, "d", 3, 1, 2),
			mk(LeafDeadlock, "d", 3, 1, 2),
		}, 1},
		{"different decisions survive", []*Incident{
			mk(LeafDeadlock, "d", 3, 1, 2),
			mk(LeafDeadlock, "d", 3, 1, 3),
		}, 2},
		{"different kind survives", []*Incident{
			mk(LeafDeadlock, "d", 3, 1),
			mk(LeafViolation, "d", 3, 1),
		}, 2},
		{"different depth survives", []*Incident{
			mk(LeafDeadlock, "d", 3, 1),
			mk(LeafDeadlock, "d", 4, 1),
		}, 2},
		{"mixed run", []*Incident{
			mk(LeafDeadlock, "a", 1, 1),
			mk(LeafDeadlock, "a", 1, 1),
			mk(LeafDeadlock, "b", 1, 1),
			mk(LeafDeadlock, "b", 1, 1),
			mk(LeafDeadlock, "b", 2, 1),
		}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := dedupeSamples(c.in); len(got) != c.want {
				t.Errorf("kept %d samples, want %d", len(got), c.want)
			}
		})
	}
}

// TestFinalizeTruncatesSamples checks the MaxIncidents cap: finalize
// keeps the best MaxIncidents samples under the deterministic order and
// drops the rest, while the incident counters still count everything.
func TestFinalizeTruncatesSamples(t *testing.T) {
	sites, procs := testSites(t)
	a := newAccum(Options{MaxIncidents: 2}, sites, procs)
	for i := 0; i < 5; i++ {
		a.rep.Samples = append(a.rep.Samples, &Incident{
			Kind:      LeafDeadlock,
			Msg:       fmt.Sprintf("incident %d", i),
			Depth:     10 - i,
			Decisions: []Decision{{Value: i}},
		})
	}
	a.rep.Deadlocks = 5
	rep := a.finalize(0, nil)
	if len(rep.Samples) != 2 {
		t.Fatalf("kept %d samples, want 2", len(rep.Samples))
	}
	if rep.Incidents() != 5 {
		t.Errorf("Incidents() = %d, want 5 (truncation must not drop counts)", rep.Incidents())
	}
	if sampleLess(rep.Samples[1], rep.Samples[0]) {
		t.Error("finalize returned samples out of order")
	}
}

// TestAccumCloneIndependent checks that clone — used to assemble mid-run
// checkpoints — is a deep enough copy: mutating the original afterwards
// must not leak into the clone's coverage or samples.
func TestAccumCloneIndependent(t *testing.T) {
	sites, procs := testSites(t)
	a := newAccum(Options{MaxIncidents: 4}, sites, procs)
	a.rep.add(&Counters{States: 5})
	a.rep.Samples = append(a.rep.Samples, &Incident{Kind: LeafDeadlock, Msg: "one"})
	if len(a.covered) == 0 {
		t.Fatal("expected a non-empty coverage bitmap")
	}
	a.covered[0] = 0b1

	c := a.clone()
	a.rep.add(&Counters{States: 7})
	a.rep.Samples = append(a.rep.Samples, &Incident{Kind: LeafDeadlock, Msg: "two"})
	a.covered[0] = 0b11

	if c.rep.States != 5 {
		t.Errorf("clone states = %d, want 5", c.rep.States)
	}
	if len(c.rep.Samples) != 1 {
		t.Errorf("clone has %d samples, want 1", len(c.rep.Samples))
	}
	if c.covered[0] != 0b1 {
		t.Errorf("clone coverage = %b, want 1", c.covered[0])
	}
}

// TestMaxStatesTruncationFlags checks the truncation contract of a
// budget-cut search at both engines: Incomplete is set,
// the cause names the budget, and the pending snapshot is non-empty.
func TestMaxStatesTruncationFlags(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rep, err := Explore(closed, Options{Workers: workers, MaxStates: 40})
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if !rep.Incomplete {
				t.Errorf("a budget-cut report is not Incomplete: %s", rep)
			}
			if rep.Cause != StopMaxStates {
				t.Errorf("cause = %v, want %v", rep.Cause, StopMaxStates)
			}
			if snap := rep.Snapshot(); snap == nil || len(snap.Units) == 0 {
				t.Error("truncated report has no resumable units")
			}
			full, err := Explore(closed, Options{Workers: workers})
			if err != nil {
				t.Fatalf("full Explore: %v", err)
			}
			if full.Incomplete || full.Cause != StopNone {
				t.Errorf("complete search flagged truncated: %+v", full)
			}
		})
	}
}

// TestMaxStatesCutParallelExact cuts many small parallel searches by
// MaxStates: each must count exactly the budget. An engine that found
// the budget held, not spent, by another engine once stopped the search
// anyway; the holder then gave its state back and the cut read one short,
// about once in 600 runs on 2 CPUs. Under the race detector, which
// watches the reservations here, a quarter of the runs keeps it near 1 s.
func TestMaxStatesCutParallelExact(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	runs := 4000
	if raceEnabled {
		runs = 1000
	}
	for run := 0; run < runs; run++ {
		budget := int64(20 + run%40)
		rep, err := Explore(closed, Options{Workers: 4, MaxStates: budget})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if rep.Cause != StopMaxStates || rep.States != budget {
			t.Fatalf("run %d: cause %v, %d states, want a MaxStates cut at exactly %d", run, rep.Cause, rep.States, budget)
		}
	}
}
