package explore

import (
	"fmt"
	"strings"
	"testing"

	"reclose/internal/interp"
	"reclose/internal/leaderelect"
	"reclose/internal/lockserver"
	"reclose/internal/progs"
)

// This file holds the contract of the red search's memo (cycle.go): it
// changes what a red search costs, never what it finds. The baseline is
// the same engine with Options.testFreshRedMemo set, which empties the
// memo at the start of every red search, so that each search steps every
// state it expands, as every red search did before the memo. Because the
// two share the walk, each program also carries its known verdict, and
// every livelock either run reports must replay as a progress-free lasso.

// memoProgram is a liveness program of the judge: livelock says whether
// it has a non-progress cycle, small whether it is small enough for the
// costlier cells.
type memoProgram struct {
	name     string
	src      string
	livelock bool
	small    bool
}

func memoPrograms() []memoProgram {
	var ps []memoProgram
	for n := 3; n <= 6; n++ {
		for _, seeded := range []bool{true, false} {
			name := fmt.Sprintf("leader-n%d", n)
			if seeded {
				name += "-seeded"
			}
			ps = append(ps, memoProgram{name, leaderelect.Source(leaderelect.Config{Nodes: n, SeedLivelock: seeded}), seeded, n <= 4})
		}
	}
	for c := 2; c <= 4; c++ {
		for r := 2; r <= 3; r++ {
			for _, greedy := range []bool{true, false} {
				name := fmt.Sprintf("lock-c%d-r%d", c, r)
				if greedy {
					name += "-greedy"
				}
				ps = append(ps, memoProgram{name, lockserver.Source(lockserver.Config{Clients: c, Rounds: r, GreedyClient: greedy}), greedy, c == 2})
			}
		}
	}
	for n := 3; n <= 5; n++ {
		ps = append(ps, memoProgram{fmt.Sprintf("phil-%d-progress", n), progressPhilosophers(n), false, n == 3})
	}
	return append(ps,
		memoProgram{"spin", livelockSpin, true, true},
		memoProgram{"cross-path", livelockCrossPath, true, true},
		memoProgram{"toss-loop", livelockTossLoop, true, true},
		memoProgram{"two-proc", livelockTwoProc, true, true},
		memoProgram{"red-cut", redCutProgram, false, false},
		memoProgram{"progress-cycle", progressCycle, false, true},
		memoProgram{"unlabeled-spin", unlabeledSpin, false, true},
	)
}

// livelockTossLoop reaches a spin loop, whose wait throws a toss, by three
// routes. The first closes the cycle on the stack; the other two arrive
// at the cached loop head, and their red searches close it over the loop,
// the third over edges the second's search has already learnt: the
// witness must carry their toss decisions all the same.
const livelockTossLoop = `
sem m = 1;
chan out[1];

proc p() {
    var x = VS_toss(2);
    if (x >= 1) {
        wait(m);
        signal(m);
    }
    if (x == 2) {
        wait(m);
        signal(m);
    }
    var done = 0;
    while (done == 0) {
        wait(m);
        x = VS_toss(1);
        x = 0;
        signal(m);
    }
    progress send(out, 0);
}

process p;
`

// progressPhilosophers is progs.Philosophers(n) with every philosopher
// eating forever and its first wait labeled progress: every cycle makes
// progress, so there is no livelock, while the red searches walk the
// forks' unlabeled waits and signals.
func progressPhilosophers(n int) string {
	src := progs.Philosophers(n)
	for i := 0; i < n; i++ {
		head := fmt.Sprintf("proc phil%d() {\n", i)
		src = strings.Replace(src, head+"    wait(", head+"    var done = 0;\n    while (done == 0) {\n    progress wait(", 1)
	}
	return strings.ReplaceAll(src, "}\nprocess", "    }\n}\nprocess")
}

// memoCell is one option set of the judge, over every program or the
// small ones.
type memoCell struct {
	name      string
	opt       Options
	smallOnly bool
}

func memoCells() []memoCell {
	// The state budget cuts the four-client lock servers (some 170 000
	// to 320 000 states, several seconds each) at a point a sequential
	// search reaches deterministically; every small program completes.
	base := Options{StateCache: true, Liveness: true, MaxDepth: 200, MaxStates: 30000, MaxIncidents: 1 << 20}
	with := func(f func(o *Options)) Options {
		o := base
		f(&o)
		return o
	}
	return []memoCell{
		{"static", base, false},
		// About 130 nodes: the memo empties many times in a search.
		{"cache-mem16KiB", with(func(o *Options) { o.MaxCacheBytes = 16 << 10 }), false},
		{"por-off", with(func(o *Options) { o.POR = POROff }), true},
		{"no-sleep", with(func(o *Options) { o.NoSleep = true }), true},
		{"por-off.no-sleep", with(func(o *Options) { o.POR, o.NoSleep = POROff, true }), true},
		{"ref", with(func(o *Options) { o.Engine = interp.EngineRef }), true},
		{"replay-only", with(func(o *Options) { o.testReplayOnly = true }), true},
		{"workers2", with(func(o *Options) { o.Workers = 2 }), true},
	}
}

// memoDigest renders everything a red search's memo must not change:
// every counter but RedSteps, the verdict flags and the per-worker
// tallies, and every incident with its decisions, lasso split and trace.
func memoDigest(rep *Report) string {
	c := rep.Counters
	c.RedSteps = 0
	var b strings.Builder
	fmt.Fprintf(&b, "%+v incomplete=%t cause=%v ops=%d/%d\n", c, rep.Incomplete, rep.Cause, rep.OpsCovered, rep.OpsTotal)
	for _, w := range rep.WorkerStats {
		fmt.Fprintf(&b, "worker units=%d states=%d paths=%d\n", w.Units, w.States, w.Paths)
	}
	for _, in := range rep.Samples {
		fmt.Fprintf(&b, "%sdecisions=%v cycle-start=%d\n", in, in.Decisions, in.CycleStart)
	}
	return b.String()
}

// TestRedMemoJudge runs every program under every cell with the memo and
// with a fresh memo per red search and holds the two to one report —
// sequential searches byte for byte (memoDigest), parallel ones, whose
// cache prunes follow the schedule, to one verdict — and each to the
// program's known verdict. Every livelock sample must replay as a lasso
// whose cycle runs no progress transition. Over the sequential cells the
// memo must save steps, and a fresh memo step every red state. Under
// the race detector only the small programs run, the ones the concurrent
// cell (Workers 2) runs anyway.
func TestRedMemoJudge(t *testing.T) {
	cells := memoCells()
	for _, p := range memoPrograms() {
		if raceEnabled && !p.small {
			continue
		}
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			u := mustClose(t, p.src)
			for _, c := range cells {
				if c.smallOnly && !p.small {
					continue
				}
				memo, err := Explore(u, c.opt)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				fo := c.opt
				fo.testFreshRedMemo = true
				fresh, err := Explore(u, fo)
				if err != nil {
					t.Fatalf("%s fresh: %v", c.name, err)
				}
				if c.opt.Workers > 1 {
					if g, w := digest(memo, sameVerdict), digest(fresh, sameVerdict); g != w {
						t.Errorf("%s: the verdict differs from a fresh memo's:\n--- memo ---\n%s--- fresh ---\n%s", c.name, g, w)
					}
				} else if g, w := memoDigest(memo), memoDigest(fresh); g != w {
					t.Errorf("%s: the report differs from a fresh memo's:\n--- memo ---\n%s--- fresh ---\n%s", c.name, g, w)
				}
				for _, rep := range []*Report{memo, fresh} {
					if got := rep.Livelocks > 0; got != p.livelock && (got || c.opt.POR == POROff && c.opt.NoSleep && !rep.Incomplete) {
						// A reduced or cut search may miss a livelock (cycle.go),
						// never invent one.
						t.Errorf("%s: livelocks=%d, want a livelock: %t", c.name, rep.Livelocks, p.livelock)
					}
					for _, in := range rep.Samples {
						if in.Kind == LeafLivelock {
							verifyLasso(t, u, in)
						}
					}
				}
				if c.opt.Workers == 0 && fresh.RedSteps < fresh.RedStates {
					t.Errorf("%s: a fresh memo stepped %d times for %d red states", c.name, fresh.RedSteps, fresh.RedStates)
				}
				if c.name == "static" && fresh.RedSearches > 10 && memo.RedSteps >= fresh.RedSteps {
					t.Errorf("%s: the memo saved no step: %d, fresh %d", c.name, memo.RedSteps, fresh.RedSteps)
				}
			}
		})
	}
}

// TestRedMemoEmpties pins the memo's bound: under a MaxCacheBytes it
// passes, an engine empties its memo between red searches, and the
// search still reports what it does with the memo unbounded.
func TestRedMemoEmpties(t *testing.T) {
	u := mustClose(t, leaderelect.Source(leaderelect.Config{Nodes: 4, SeedLivelock: true}))
	opt := Options{StateCache: true, Liveness: true, MaxCacheBytes: 16 << 10}
	empties, last := 0, 0
	bounded := driveEngine(t, u, opt, nil, func(e *engine) {
		if n := len(e.red.nodes); n < last {
			empties++
		}
		last = len(e.red.nodes)
		if e.red.bytes > opt.MaxCacheBytes+RedStateBudget*(redNodeOverhead+64) {
			t.Fatalf("the memo is charged %d bytes under a %d-byte bound", e.red.bytes, opt.MaxCacheBytes)
		}
	})
	if empties == 0 {
		t.Fatal("the memo was never emptied")
	}
	opt.testFreshRedMemo = true
	fresh := driveEngine(t, u, opt, nil, func(*engine) {})
	if g, w := memoDigest(bounded), memoDigest(fresh); g != w {
		t.Errorf("an emptied memo changed the report:\n--- bounded ---\n%s--- fresh ---\n%s", g, w)
	}
	t.Logf("memo emptied %d times; red steps %d, fresh %d, red states %d", empties, bounded.RedSteps, fresh.RedSteps, bounded.RedStates)
}

// TestRedSearchAllocatesNothing: a red search over a memo that knows its
// region allocates nothing — no decision list, no trace, no seen set.
func TestRedSearchAllocatesNothing(t *testing.T) {
	u := mustClose(t, leaderelect.Source(leaderelect.Config{Nodes: 4}))
	ran := false
	driveEngine(t, u, Options{StateCache: true, Liveness: true}, nil, func(e *engine) {
		depth := e.schedDepth()
		if ran || depth < 4 {
			return
		}
		e.fpBuf, _ = e.sys.AppendKey(e.fpBuf[:0], e.segs)
		h := e.sys.StateHash()
		if e.liveCheck(depth, h) {
			return
		}
		key := append([]byte(nil), e.fpBuf...)
		before := e.rep.RedStates
		if e.redSearch(depth, h, key) || e.rep.RedStates == before {
			return // a livelock, or nothing to walk: try a deeper state
		}
		ran = true
		steps := e.rep.RedSteps
		if allocs := testing.AllocsPerRun(20, func() { e.redSearch(depth, h, key) }); allocs != 0 {
			t.Errorf("a red search over a warm memo allocates %.1f times", allocs)
		}
		if e.rep.RedSteps != steps {
			t.Errorf("a red search over a warm memo stepped %d times", e.rep.RedSteps-steps)
		}
	})
	if !ran {
		t.Fatal("no state had a red region to walk")
	}
}
