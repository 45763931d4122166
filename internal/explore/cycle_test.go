package explore

import (
	"bytes"
	"strings"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/interp"
)

// livelockSpin is a closed single-process program that spins forever on
// a semaphore without ever reaching its progress-labeled send: every
// wait/signal round trip returns to the same state, a textbook
// non-progress cycle.
const livelockSpin = `
sem m = 1;
chan out[1];

proc p() {
    var done = 0;
    while (done == 0) {
        wait(m);
        signal(m);
    }
    progress send(out, 0);
}

process p;
`

// livelockCrossPath forks on a toss: outcome 0 enters the spin loop
// directly, outcome 1 takes a detour through one extra wait/signal pair
// first. With the state cache on, the second path's arrival at the loop
// head is pruned (the first path cached it), so only the nested red
// search can close its cycle.
const livelockCrossPath = `
sem m = 1;
chan out[1];

proc p() {
    var x = VS_toss(1);
    if (x == 1) {
        wait(m);
        signal(m);
    }
    x = 0;
    var done = 0;
    while (done == 0) {
        wait(m);
        signal(m);
    }
    progress send(out, 0);
}

process p;
`

// livelockTwoProc pairs an eternal non-progress spinner with a worker
// that performs labeled progress and terminates: the livelock cycle
// schedules only the spinner.
const livelockTwoProc = `
sem m = 1;
chan out[2];

proc spinner() {
    var done = 0;
    while (done == 0) {
        wait(m);
        signal(m);
    }
}

proc worker() {
    var i = 0;
    while (i < 2) {
        progress send(out, i);
        i = i + 1;
    }
}

process spinner;
process worker;
`

func compileClosed(t testing.TB, src string) *cfg.Unit {
	t.Helper()
	u, err := core.CompileSource(src)
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	if u.IsOpen() {
		t.Fatal("test program unexpectedly open")
	}
	return u
}

// verifyLasso replays a livelock incident's decision sequence and
// checks the witness contract: the stem and the full lasso end in the
// same state (the cycle closes), the cycle is non-empty, and no cycle
// transition executes a progress-labeled operation.
func verifyLasso(t *testing.T, u *cfg.Unit, in *Incident) {
	t.Helper()
	if in.Kind != LeafLivelock {
		t.Fatalf("incident kind = %v, want livelock", in.Kind)
	}
	if in.CycleStart < 0 || in.CycleStart >= len(in.Decisions) {
		t.Fatalf("cycle split %d out of range of %d decisions", in.CycleStart, len(in.Decisions))
	}
	stemSys, out, err := Replay(u, in.Decisions[:in.CycleStart], nil)
	if err != nil || out != nil {
		t.Fatalf("stem replay: err=%v out=%v", err, out)
	}
	fullSys, out, err := Replay(u, in.Decisions, nil)
	if err != nil || out != nil {
		t.Fatalf("lasso replay: err=%v out=%v", err, out)
	}
	stem := stemSys.AppendFingerprint(nil)
	full := fullSys.AppendFingerprint(nil)
	if !bytes.Equal(stem, full) {
		t.Errorf("lasso does not close: stem state != cycle-end state\nincident: %s", in)
	}

	// Re-execute by hand to check every cycle transition is
	// progress-free at the moment it fires.
	sys, err := interp.NewSystem(u)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	pos := 0
	ch := interp.ChooserFunc(func(bound int) (int, bool) {
		if pos >= len(in.Decisions) || !in.Decisions[pos].Toss {
			return 0, false
		}
		v := in.Decisions[pos].Value
		pos++
		return v, true
	})
	if out := sys.Init(ch); out != nil {
		t.Fatalf("Init outcome: %v", out)
	}
	for pos < len(in.Decisions) {
		d := in.Decisions[pos]
		inCycle := pos >= in.CycleStart
		pos++
		if d.Toss {
			t.Fatalf("unconsumed toss decision at %d", pos-1)
		}
		if inCycle && sys.AppendPending(nil)[d.Value].Flags&interp.PendProgress != 0 {
			t.Errorf("cycle transition at decision %d runs progress-labeled P%d", pos-1, d.Value)
		}
		if _, out := sys.Step(d.Value, ch); out != nil {
			t.Fatalf("replay outcome at decision %d: %v", pos-1, out)
		}
	}
}

// TestLivelockBlueDetected finds the seeded spin livelock through the
// on-stack (blue) check and validates its lasso witness end to end.
func TestLivelockBlueDetected(t *testing.T) {
	u := compileClosed(t, livelockSpin)
	rep, err := Explore(u, Options{Liveness: true, MaxDepth: 40})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Livelocks == 0 {
		t.Fatalf("no livelock found: %s", rep)
	}
	in := rep.FirstIncident(LeafLivelock)
	if in == nil {
		t.Fatal("no livelock sample recorded")
	}
	verifyLasso(t, u, in)
	if rep.Incidents() == 0 {
		t.Error("Incidents() does not count livelocks")
	}
}

// TestLivelockOffSilent pins the off switch: without Options.Liveness
// the same program reports nothing new and unrolls to the depth bound.
func TestLivelockOffSilent(t *testing.T) {
	u := compileClosed(t, livelockSpin)
	rep, err := Explore(u, Options{MaxDepth: 40})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Livelocks != 0 {
		t.Errorf("livelocks reported with liveness off: %s", rep)
	}
	if rep.DepthHits == 0 {
		t.Errorf("spin program should hit the depth bound: %s", rep)
	}
}

// TestLivelockProgressCycleBenign labels the spin loop's wait as
// progress: the cycle now makes progress and is not a livelock.
func TestLivelockProgressCycleBenign(t *testing.T) {
	src := `
sem m = 1;
chan out[1];

proc p() {
    var done = 0;
    while (done == 0) {
        progress wait(m);
        signal(m);
    }
    send(out, 0);
}

process p;
`
	u := compileClosed(t, src)
	rep, err := Explore(u, Options{Liveness: true, MaxDepth: 40})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Livelocks != 0 {
		t.Errorf("progress-making cycle reported as livelock: %s", rep)
	}
}

// TestLivelockDefaultAnyVisibleOp pins the unlabeled default: with no
// `progress` labels anywhere, every visible operation counts as
// progress, so the same spin cycle is benign and existing programs need
// no edits to stay quiet under -liveness.
func TestLivelockDefaultAnyVisibleOp(t *testing.T) {
	src := `
sem m = 1;
chan out[1];

proc p() {
    var done = 0;
    while (done == 0) {
        wait(m);
        signal(m);
    }
    send(out, 0);
}

process p;
`
	u := compileClosed(t, src)
	rep, err := Explore(u, Options{Liveness: true, MaxDepth: 40})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Livelocks != 0 {
		t.Errorf("unlabeled program reported a livelock: %s", rep)
	}
}

// TestLivelockRedSearch drives the nested (red) half: the cross-path
// variant's second route reaches the cached loop head, gets pruned, and
// only the red search can exhibit its cycle. Both witnesses must
// replay.
func TestLivelockRedSearch(t *testing.T) {
	u := compileClosed(t, livelockCrossPath)
	rep, err := Explore(u, Options{
		Liveness:   true,
		StateCache: true,
		MaxDepth:   40,
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Livelocks < 2 {
		t.Fatalf("want a blue and a red livelock, got %d: %s", rep.Livelocks, rep)
	}
	if rep.RedSearches == 0 || rep.RedStates == 0 {
		t.Errorf("red search never ran: searches=%d states=%d", rep.RedSearches, rep.RedStates)
	}
	n := 0
	for _, in := range rep.Samples {
		if in.Kind == LeafLivelock {
			verifyLasso(t, u, in)
			n++
		}
	}
	if n < 2 {
		t.Errorf("only %d livelock samples recorded", n)
	}
}

// TestLivelockPORDynamicRefused is the POR-vs-liveness contract:
// liveness runs under the strict static oracle (the cycle proviso is
// not implemented), which finds the livelock, and a request for dynamic
// POR with it is refused — not run as static under the dynamic name.
func TestLivelockPORDynamicRefused(t *testing.T) {
	u := compileClosed(t, livelockTwoProc)
	stat, err := Explore(u, Options{
		Liveness: true, POR: PORStatic, MaxDepth: 60,
	})
	if err != nil {
		t.Fatalf("static: %v", err)
	}
	if stat.Livelocks == 0 {
		t.Fatalf("static oracle found no livelock: %s", stat)
	}
	dyn, err := Explore(u, Options{
		Liveness: true, POR: PORDynamic, MaxDepth: 60,
	})
	if err == nil || !strings.Contains(err.Error(), "Liveness does not compose with POR dynamic") {
		t.Errorf("dynamic-POR liveness: report %v, error %v; want the refusal", dyn, err)
	}
}

// redCutProgram makes one red search run out of budget and nothing else
// expensive. The gate's toss is thrown away, so both outcomes start the
// system in one state and the second is pruned by the cache at depth 0;
// the red search launched there follows the four workers' unlabeled
// (hence non-progress) sends through all their interleavings — 9^4
// states, no cycle among them — while the blue search, under persistent
// sets, walked a single one.
const redCutProgram = `
chan w0[8];
chan w1[8];
chan w2[8];
chan w3[8];
chan start[1];

proc gate() {
    var t = VS_toss(1);
    t = 0;
    progress send(start, t);
}
proc worker0() { var i; for (i = 0; i < 8; i = i + 1) { send(w0, i); } }
proc worker1() { var i; for (i = 0; i < 8; i = i + 1) { send(w1, i); } }
proc worker2() { var i; for (i = 0; i < 8; i = i + 1) { send(w2, i); } }
proc worker3() { var i; for (i = 0; i < 8; i = i + 1) { send(w3, i); } }

process gate;
process worker0;
process worker1;
process worker2;
process worker3;
`

// TestRedSearchBudgetIsCounted pins verdict completeness: a red search
// that stops at RedStateBudget is counted in Report.RedCut (and only
// such a search is), through the report merge and a checkpoint's
// counters.
func TestRedSearchBudgetIsCounted(t *testing.T) {
	u := compileClosed(t, redCutProgram)
	opt := Options{Liveness: true, StateCache: true}
	rep, err := Explore(u, opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Livelocks != 0 || rep.RedCut != 1 || rep.RedSearches < 1 || rep.RedStates < RedStateBudget {
		t.Fatalf("want no livelock and one of the red searches cut, got livelocks=%d cut=%d searches=%d states=%d",
			rep.Livelocks, rep.RedCut, rep.RedSearches, rep.RedStates)
	}

	// Red searches that end inside the budget cut nothing.
	full, err := Explore(compileClosed(t, livelockCrossPath), Options{Liveness: true, StateCache: true, MaxDepth: 40})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if full.RedSearches == 0 || full.RedCut != 0 {
		t.Fatalf("cross-path program: searches=%d cut=%d, want some and none", full.RedSearches, full.RedCut)
	}

	var snap *Snapshot
	opt.CheckpointEveryPaths = 1
	opt.Checkpoint = func(s *Snapshot) { snap = s }
	if _, err := Explore(u, opt); err != nil {
		t.Fatalf("Explore with checkpoints: %v", err)
	}
	if snap == nil || snap.Counters.RedCut != 1 {
		t.Fatalf("last checkpoint does not carry the cut: %+v", snap)
	}
}
