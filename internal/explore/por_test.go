package explore_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/interp"
	"reclose/internal/progs"
)

// TestPhilosophersDeadlock checks the canonical POR workload end to end:
// the circular-wait deadlock is found with and without reduction, and
// the reductions shrink the state count strictly.
func TestPhilosophersDeadlock(t *testing.T) {
	unit := core.MustCompileSource(progs.Philosophers(3))
	full, err := explore.Explore(unit, explore.Options{POR: explore.POROff, NoSleep: true})
	if err != nil {
		t.Fatal(err)
	}
	pers, err := explore.Explore(unit, explore.Options{NoSleep: true})
	if err != nil {
		t.Fatal(err)
	}
	both, err := explore.Explore(unit, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Deadlocks == 0 || pers.Deadlocks == 0 || both.Deadlocks == 0 {
		t.Fatalf("deadlock missed: full=%d pers=%d both=%d", full.Deadlocks, pers.Deadlocks, both.Deadlocks)
	}
	if !(both.States < pers.States && pers.States < full.States) {
		t.Errorf("reductions not strictly shrinking: full=%d pers=%d both=%d",
			full.States, pers.States, both.States)
	}
}

// TestPipelineAssertHolds: the pipeline's end-to-end assertion holds
// under every interleaving, with and without reduction.
func TestPipelineAssertHolds(t *testing.T) {
	unit := core.MustCompileSource(progs.Pipeline(3, 2))
	for _, opt := range []explore.Options{
		{},
		{POR: explore.POROff, NoSleep: true},
		{NoSleep: true},
	} {
		rep, err := explore.Explore(unit, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violations != 0 || rep.Deadlocks != 0 {
			t.Errorf("opts %+v: unexpected incidents: %s", opt, rep)
		}
		if rep.Terminated == 0 {
			t.Errorf("opts %+v: no terminating paths", opt)
		}
	}
}

// TestSingletonPersistentForPrivateObjects: a process operating on an
// object nobody else touches is explored alone, collapsing the
// interleaving of independent processes entirely.
func TestSingletonPersistentForPrivateObjects(t *testing.T) {
	src := `
chan c0[4];
chan c1[4];
proc a() {
    var i = 0;
    while (i < 3) {
        send(c0, i);
        i = i + 1;
    }
}
proc b() {
    var i = 0;
    while (i < 3) {
        send(c1, i);
        i = i + 1;
    }
}
process a;
process b;
`
	unit := core.MustCompileSource(src)
	red, err := explore.Explore(unit, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := explore.Explore(unit, explore.Options{POR: explore.POROff, NoSleep: true})
	if err != nil {
		t.Fatal(err)
	}
	// Two fully independent processes: the reduction explores a single
	// interleaving (1 path); the full search explores C(6,3) = 20.
	if red.Paths != 1 {
		t.Errorf("reduced paths = %d, want 1 (total independence)", red.Paths)
	}
	if full.Paths != 20 {
		t.Errorf("full paths = %d, want C(6,3) = 20", full.Paths)
	}
}

// TestStateCacheAblation: with hashing, the diamond-shaped pipeline
// state space collapses; verdicts agree on a workload without deep
// revisits.
func TestStateCacheAblation(t *testing.T) {
	unit := core.MustCompileSource(progs.Pipeline(2, 2))
	plain, err := explore.Explore(unit, explore.Options{POR: explore.POROff, NoSleep: true})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := explore.Explore(unit, explore.Options{POR: explore.POROff, NoSleep: true, StateCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if cached.CachePrunes == 0 {
		t.Errorf("cache never pruned: %s", cached)
	}
	if cached.States >= plain.States {
		t.Errorf("cache did not shrink the search: %d vs %d", cached.States, plain.States)
	}
}

// TestTraceHelpers covers the canonicalization and wildcard matching.
func TestTraceHelpers(t *testing.T) {
	if !explore.EventMatches("P0:send(c)=3", "P0:send(c)=3") {
		t.Error("identical events must match")
	}
	if !explore.EventMatches("P0:send(c)=3", "P0:send(c)=undef") {
		t.Error("undef must match concrete data")
	}
	if explore.EventMatches("P0:send(c)=undef", "P0:send(c)=3") {
		t.Error("wildcard is one-directional")
	}
	if explore.EventMatches("P1:send(c)=3", "P0:send(c)=undef") {
		t.Error("process must match")
	}
	if explore.EventMatches("P0:send(d)=3", "P0:send(c)=undef") {
		t.Error("object must match")
	}

	open := []explore.Trace{{Events: []string{"P0:send(c)=1", "P0:recv(d)=2"}}}
	closedOK := []explore.Trace{{Events: []string{"P0:send(c)=undef", "P0:recv(d)=2"}}}
	closedBad := []explore.Trace{{Events: []string{"P0:send(c)=undef"}}}
	if _, ok := explore.WildcardSubset(open, closedOK); !ok {
		t.Error("inclusion with wildcard failed")
	}
	if w, ok := explore.WildcardSubset(open, closedBad); ok || w == "" {
		t.Error("length mismatch must fail with a witness")
	}

	deadlock := func(evs ...string) []explore.Trace {
		return []explore.Trace{{Kind: explore.LeafDeadlock, Events: evs}}
	}
	if _, ok := explore.IncidentsMatched(deadlock("P0:send(c)=1"), deadlock("P0:send(c)=undef")); !ok {
		t.Error("a deadlock must match a closed deadlock with the wildcard")
	}
	if _, ok := explore.IncidentsMatched(deadlock("P0:send(c)=1"), closedOK); ok {
		t.Error("a deadlock matched a trace that is no deadlock")
	}
	if _, ok := explore.IncidentsMatched(open, nil); !ok {
		t.Error("a trace that is no incident needs no match")
	}
}

// TestMaxStatesTruncation: the cap aborts the search and marks the
// report.
func TestMaxStatesTruncation(t *testing.T) {
	unit := core.MustCompileSource(progs.Philosophers(4))
	rep, err := explore.Explore(unit, explore.Options{POR: explore.POROff, NoSleep: true, MaxStates: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Incomplete {
		t.Error("report not marked truncated")
	}
	if rep.States > 100 {
		t.Errorf("states = %d, want <= 100", rep.States)
	}
}

// TestStopOnViolation aborts at the first violation.
func TestStopOnViolation(t *testing.T) {
	unit, _, err := core.CloseSource(progs.AssertViolation)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := explore.Explore(unit, explore.Options{Stop: explore.StopViolation})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 1 || !rep.Incomplete {
		t.Errorf("want exactly one violation and truncation: %s", rep)
	}
}

// TestIncidentSampleCap: MaxIncidents bounds samples but not counters.
// Unreduced, four philosophers deadlock 24 times.
func TestIncidentSampleCap(t *testing.T) {
	unit := core.MustCompileSource(progs.Philosophers(4))
	rep, err := explore.Explore(unit, explore.Options{POR: explore.POROff, NoSleep: true, MaxIncidents: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlocks != 24 {
		t.Fatalf("deadlocks = %d, want 24: %s", rep.Deadlocks, rep)
	}
	if len(rep.Samples) != 2 {
		t.Errorf("samples = %d, want 2", len(rep.Samples))
	}
}

// TestReportString sanity-checks the rendered summary.
func TestReportString(t *testing.T) {
	unit := core.MustCompileSource(progs.Philosophers(3))
	rep, err := explore.Explore(unit, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"states=", "transitions=", "deadlocks="} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
	if rep.StatesAtFirstIncident == 0 {
		t.Error("StatesAtFirstIncident not recorded")
	}
	if got := rep.FirstIncident(explore.LeafViolation); got != nil {
		t.Error("phantom violation sample")
	}
}

// TestLeafKindStrings pins the leaf names used in logs.
func TestLeafKindStrings(t *testing.T) {
	want := map[explore.LeafKind]string{
		explore.LeafTerminated:  "terminated",
		explore.LeafDeadlock:    "deadlock",
		explore.LeafViolation:   "violation",
		explore.LeafTrap:        "trap",
		explore.LeafDivergence:  "divergence",
		explore.LeafDepth:       "depth-bound",
		explore.LeafSleepPruned: "sleep-pruned",
		explore.LeafCachePruned: "cache-pruned",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestReplayIncident re-executes a recorded deadlock scenario and checks
// it reproduces the same trace and final state.
func TestReplayIncident(t *testing.T) {
	unit := core.MustCompileSource(progs.Philosophers(3))
	rep, err := explore.Explore(unit, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := rep.FirstIncident(explore.LeafDeadlock)
	if in == nil {
		t.Fatal("no deadlock sample")
	}
	var events []string
	sys, out, err := explore.Replay(unit, in.Decisions, func(st explore.ReplayStep) {
		if st.HasEvent {
			events = append(events, st.Event.String())
		}
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if out != nil {
		t.Fatalf("unexpected outcome: %s", out)
	}
	if !explore.Deadlocked(sys) {
		t.Error("replayed scenario does not end in the deadlock")
	}
	if len(events) != len(in.Trace) {
		t.Fatalf("replayed %d events, incident has %d", len(events), len(in.Trace))
	}
	for i := range events {
		if events[i] != in.Trace[i].String() {
			t.Errorf("event %d: %s vs %s", i, events[i], in.Trace[i])
		}
	}
}

// TestReplayViolation replays an assertion violation to its outcome.
func TestReplayViolation(t *testing.T) {
	unit, _, err := core.CloseSource(progs.AssertViolation)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := explore.Explore(unit, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := rep.FirstIncident(explore.LeafViolation)
	if in == nil {
		t.Fatal("no violation sample")
	}
	_, out, err := explore.Replay(unit, in.Decisions, nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if out == nil || out.Kind != interp.OutViolation {
		t.Fatalf("replay outcome = %v, want the violation", out)
	}
}

// TestReplayStaleDecisions: decisions from another program are rejected
// rather than silently misexecuted.
func TestReplayStaleDecisions(t *testing.T) {
	unit := core.MustCompileSource(progs.Philosophers(3))
	bad := []explore.Decision{{Value: 99}}
	if _, _, err := explore.Replay(unit, bad, nil); err == nil {
		t.Error("out-of-range scheduling decision accepted")
	}
}

// TestCoverageReported: a full search covers every visible op of the
// philosophers; a depth-1 search covers strictly fewer.
func TestCoverageReported(t *testing.T) {
	unit := core.MustCompileSource(progs.Philosophers(3))
	full, err := explore.Explore(unit, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.OpsTotal != 12 {
		t.Errorf("OpsTotal = %d, want 12 (4 ops x 3 philosophers)", full.OpsTotal)
	}
	if full.OpsCovered != full.OpsTotal {
		t.Errorf("full search covered %d/%d ops", full.OpsCovered, full.OpsTotal)
	}
	shallow, err := explore.Explore(unit, explore.Options{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if shallow.OpsCovered >= full.OpsCovered {
		t.Errorf("depth-1 coverage %d not below full %d", shallow.OpsCovered, full.OpsCovered)
	}
}

// TestShortestWitness: iterative deepening returns the minimal deadlock
// depth (3 for three philosophers grabbing their left forks).
func TestShortestWitness(t *testing.T) {
	unit := core.MustCompileSource(progs.Philosophers(3))
	in, rep, err := explore.ShortestWitness(context.Background(), unit, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in == nil {
		t.Fatalf("no witness found: %s", rep)
	}
	if in.Kind != explore.LeafDeadlock || in.Depth != 3 {
		t.Errorf("witness = %s at depth %d, want deadlock at 3", in.Kind, in.Depth)
	}
	// The witness replays.
	sys, _, err := explore.Replay(unit, in.Decisions, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !explore.Deadlocked(sys) {
		t.Error("shortest witness does not reproduce the deadlock")
	}
}

// TestShortestWitnessNone: a clean system yields no witness and
// terminates the deepening early.
func TestShortestWitnessNone(t *testing.T) {
	unit := core.MustCompileSource(progs.Pipeline(2, 1))
	in, rep, err := explore.ShortestWitness(context.Background(), unit, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		t.Errorf("phantom witness: %s", in)
	}
	if rep == nil || rep.DepthHits != 0 {
		t.Errorf("deepening did not finish cleanly: %s", rep)
	}
}

// TestShortestWitnessStopsAtACut: a round cut before it finds an
// incident ends the deepening with that round's Incomplete report and no
// incident — past a cut, "nothing shallower" is not proved, so a deeper
// round's witness would not be minimal — and one context bounds every
// round: a deadline already passed cuts the first.
func TestShortestWitnessStopsAtACut(t *testing.T) {
	unit := core.MustCompileSource(progs.Philosophers(3))
	// The depth-2 round, whole, sizes a budget that cuts it; the deadlock
	// is at depth 3.
	whole, err := explore.Explore(unit, explore.Options{MaxDepth: 2, Stop: explore.StopIncident})
	if err != nil {
		t.Fatal(err)
	}
	if whole.Incidents() != 0 || whole.Incomplete {
		t.Fatalf("the depth-2 round is not whole and clean: %s", whole)
	}
	in, rep, err := explore.ShortestWitness(context.Background(), unit, explore.Options{MaxStates: whole.States - 1})
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		t.Errorf("witness %s at depth %d past a cut round", in.Kind, in.Depth)
	}
	if !rep.Incomplete || rep.Cause != explore.StopMaxStates || rep.MaxDepth > 2 {
		t.Errorf("report = %s cause=%s, want the depth-2 round cut by its state budget", rep, rep.Cause)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	in, rep, err = explore.ShortestWitness(ctx, unit, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in != nil || !rep.Incomplete || rep.Cause != explore.StopTimeout || rep.MaxDepth > 1 {
		t.Errorf("past its deadline: witness %v, report %s cause=%s; want none, the first round cut by the deadline", in, rep, rep.Cause)
	}
}

// TestShortestWitnessSomeWitnessModes pins the weaker contract under
// dynamic POR: with -por dynamic the function degrades to a single stop-on-first search, so it must still
// return a valid, replayable witness — just not necessarily a minimal
// one. Strict DFS minimality (depth 3 here) stays pinned by
// TestShortestWitness above.
func TestShortestWitnessSomeWitnessModes(t *testing.T) {
	unit := core.MustCompileSource(progs.Philosophers(3))
	in, rep, err := explore.ShortestWitness(context.Background(), unit, explore.Options{POR: explore.PORDynamic})
	if err != nil {
		t.Fatal(err)
	}
	if in == nil {
		t.Fatalf("no witness found: %s", rep)
	}
	if in.Kind != explore.LeafDeadlock {
		t.Errorf("witness = %s, want deadlock", in.Kind)
	}
	// Some witness, not the shortest: depth may exceed the minimal 3, but
	// the scenario must still replay to the deadlock.
	sys, _, err := explore.Replay(unit, in.Decisions, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !explore.Deadlocked(sys) {
		t.Error("witness does not reproduce the deadlock")
	}
}

// TestShortestWitnessSomeWitnessNone: the degraded mode still answers
// "no witness" cleanly on an incident-free system.
func TestShortestWitnessSomeWitnessNone(t *testing.T) {
	unit := core.MustCompileSource(progs.Pipeline(2, 1))
	in, _, err := explore.ShortestWitness(context.Background(), unit, explore.Options{POR: explore.PORDynamic})
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		t.Errorf("phantom witness: %s", in)
	}
}
