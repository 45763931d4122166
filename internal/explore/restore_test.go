package explore

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/fiveess"
	"reclose/internal/interp"
	"reclose/internal/leaderelect"
	"reclose/internal/lockserver"
	"reclose/internal/progs"
	"reclose/internal/randprog"
)

// This file holds the contract of backtracking by undoing
// (restore.go): it changes what a path costs, never what the search
// finds. The baseline is the same engine with Options.testReplayOnly
// set, which takes no marks and so replays every path from the
// start of its unit, as every engine did before.

// restoreDigest renders everything restore and replay must agree on:
// Report.String (Replays included — it counts path restarts, not what
// they cost), every other counter except ReplaySteps, coverage, and
// every sample with its rendered trace, decisions and lasso split.
func restoreDigest(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", rep)
	fmt.Fprintf(&b, "terminated=%d sleep=%d cache=%d internal=%d livelocks=%d red=%d/%d cut=%d incomplete=%t cause=%v\n",
		rep.Terminated, rep.SleepPrunes, rep.CachePrunes, rep.InternalErrors,
		rep.Livelocks, rep.RedSearches, rep.RedStates, rep.RedCut, rep.Incomplete, rep.Cause)
	fmt.Fprintf(&b, "por backtracks=%d sleep-blocked=%d pruned=%d\n",
		rep.PorBacktracks, rep.PorSleepBlocked, rep.PorDynamicPruned)
	fmt.Fprintf(&b, "coverage=%d/%d\n", rep.OpsCovered, rep.OpsTotal)
	if rep.Workers == 0 {
		// With workers the watermark samples a shared counter mid-flight.
		fmt.Fprintf(&b, "first-incident=%d\n", rep.StatesAtFirstIncident)
	}
	for _, in := range rep.Samples {
		fmt.Fprintf(&b, "%sdecisions=%v cycle-start=%d\n", in, in.Decisions, in.CycleStart)
	}
	return b.String()
}

// verdictDigest is what a parallel cached search of a model with cycles
// (or a depth cut) reproduces from run to run: which kinds of incident
// exist. Which revisit the shared cache prunes — and with it the leaf
// counts, and which lassos the red search closes — varies with worker
// timing.
func verdictDigest(rep *Report) string {
	return fmt.Sprintf("deadlock=%t violation=%t trap=%t divergence=%t livelock=%t internal=%t",
		rep.Deadlocks > 0, rep.Violations > 0, rep.Traps > 0, rep.Divergences > 0, rep.Livelocks > 0, rep.InternalErrors > 0)
}

// restoreCases are small closed units covering what a restore has to
// carry: toss entries (the closing transformation's VS_toss), deadlocks,
// assertion violations, progress labels with and without livelocks, and
// a few random programs.
func restoreCases(t *testing.T) map[string]*cfg.Unit {
	t.Helper()
	cases := map[string]*cfg.Unit{
		"figure-p":          mustClose(t, progs.FigureP),
		"assert-violation":  mustClose(t, progs.AssertViolation),
		"producer-consumer": mustClose(t, progs.ProducerConsumer),
		"philosophers-3":    mustClose(t, progs.Philosophers(3)),
		"pipeline-2-2":      mustClose(t, progs.Pipeline(2, 2)),
		"lock-greedy":       mustClose(t, lockserver.Source(lockserver.Config{Clients: 2, Rounds: 1, GreedyClient: true})),
		"leader-seeded":     mustClose(t, leaderelect.Source(leaderelect.Config{Nodes: 3, SeedLivelock: true})),
	}
	for _, seed := range []int64{3, 11, 29} {
		src := randprog.Generate(rand.New(rand.NewSource(seed)), randprog.Config{Processes: 3, MaxStmts: 6, Helpers: 1})
		cases[fmt.Sprintf("rand-%d", seed)] = mustClose(t, src)
	}
	return cases
}

// TestRestoreMatchesReplay is the equivalence grid: engines {bytecode,
// ref} × POR {off, static, dynamic} × state cache × liveness × workers
// {0, 2} × snapshot-spill, where the liveness cells with dynamic POR or
// snapshot spill must be refused. Restore and replay runs of one
// configuration must produce byte-identical digests (the
// schedule-independent digests for parallel cached runs, where which
// duplicate route is pruned varies between any two runs of one
// engine), and restore must re-execute strictly fewer transitions
// whenever a sequential search on the compiled machine, which can copy
// its state, backtracked at all. Sequential
// configurations additionally cut the search at a checkpoint and resume
// it: the checkpoints agree on everything but the cost counter, and
// both resumed searches land on the uninterrupted totals.
func TestRestoreMatchesReplay(t *testing.T) {
	engines := []interp.EngineKind{interp.EngineBytecode, interp.EngineRef}
	pors := []PORMode{POROff, PORStatic, PORDynamic}
	sawSaving := false
	for name, u := range restoreCases(t) {
		t.Run(name, func(t *testing.T) {
			// On the hand-written loop-free models a parallel cached
			// search reproduces its leaf counts whatever the worker
			// timing; on the others only its verdict.
			loopFree := !strings.Contains(name, "-greedy") && !strings.Contains(name, "-seeded") && !strings.HasPrefix(name, "rand-")
			for _, eng := range engines {
				for _, por := range pors {
					for _, mode := range []struct{ cache, live bool }{{false, false}, {true, false}, {true, true}} {
						for _, par := range []struct {
							workers int
							spill   bool
						}{{0, false}, {2, false}, {2, true}} {
							opt := Options{
								Engine: eng, POR: por, StateCache: mode.cache, Liveness: mode.live,
								Workers: par.workers, SnapshotSpill: par.spill, SpillDepth: 3,
								MaxDepth: 40, MaxIncidents: 1 << 20,
							}
							label := fmt.Sprintf("engine=%s por=%s cache=%t liveness=%t workers=%d spill=%t",
								eng, por, mode.cache, mode.live, par.workers, par.spill)
							if mode.live && (por == PORDynamic || par.spill) {
								// Refused (Resolve); each once ran another
								// cell's static, unspilled search.
								if _, err := Explore(u, opt); err == nil {
									t.Fatalf("%s: Explore accepted a liveness search it cannot honour", label)
								}
								continue
							}
							replayOpt := opt
							replayOpt.testReplayOnly = true
							replay, err := Explore(u, replayOpt)
							if err != nil {
								t.Fatalf("%s: replay Explore: %v", label, err)
							}
							restore, err := Explore(u, opt)
							if err != nil {
								t.Fatalf("%s: restore Explore: %v", label, err)
							}
							digest := restoreDigest
							switch {
							case par.workers > 0 && mode.cache && !loopFree:
								digest = verdictDigest
							case par.workers > 0 && mode.cache:
								digest = cacheDigest
							}
							if got, want := digest(restore), digest(replay); got != want {
								t.Fatalf("%s: restore diverged from replay:\n--- restore ---\n%s--- replay ---\n%s", label, got, want)
							}
							// (A parallel cached run's cost varies with which
							// worker reaches a state first, in either mode.)
							if restore.ReplaySteps > replay.ReplaySteps && !(par.workers > 0 && mode.cache) {
								t.Errorf("%s: restore re-executed %d transitions, replay %d", label, restore.ReplaySteps, replay.ReplaySteps)
							}
							if par.workers != 0 {
								continue
							}
							// A sequential search that backtracked past depth
							// one replayed a multi-step prefix; restoring must
							// have been cheaper where the machine can copy.
							if eng != interp.EngineRef && replay.ReplaySteps > replay.Replays {
								if restore.ReplaySteps >= replay.ReplaySteps {
									t.Errorf("%s: restore saved nothing: %d replay steps, replay mode %d (replays=%d)",
										label, restore.ReplaySteps, replay.ReplaySteps, replay.Replays)
								}
								sawSaving = true
							}
							checkResumeAgrees(t, label, u, opt, restoreDigest(restore))
						}
					}
				}
			}
		})
	}
	if !sawSaving {
		t.Error("no configuration backtracked deep enough to show a saving")
	}
}

// cutOnce runs a sequential search that checkpoints after cut paths and
// cancels there; it returns the checkpoint (nil when the search finished
// first).
func cutOnce(t *testing.T, u *cfg.Unit, opt Options, cut int64) *Snapshot {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *Snapshot
	opt.CheckpointEveryPaths = cut
	opt.Checkpoint = func(s *Snapshot) {
		if snap == nil {
			snap = s
			cancel()
		}
	}
	if _, err := ExploreContext(ctx, u, opt); err != nil {
		t.Fatalf("ExploreContext: %v", err)
	}
	return snap
}

// checkResumeAgrees cuts a sequential search after a few paths in both
// modes. The two checkpoints must encode to the same bytes once the
// cost counter is levelled — the decision stack is what a checkpoint
// holds, and restoring never touches it — and each resumed search must
// reach the uninterrupted search's totals (want, a restoreDigest). The
// sequential state cache is rebuilt from empty after a resume, so cached
// configurations compare the checkpoints only.
func checkResumeAgrees(t *testing.T, label string, u *cfg.Unit, opt Options, want string) {
	t.Helper()
	replayOpt := opt
	replayOpt.testReplayOnly = true
	a, b := cutOnce(t, u, opt, 3), cutOnce(t, u, replayOpt, 3)
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: only one mode reached the checkpoint", label)
	}
	if a == nil {
		return
	}
	a.Counters.ReplaySteps, b.Counters.ReplaySteps = 0, 0
	ja, err := a.Encode()
	if err != nil {
		t.Fatalf("%s: Encode: %v", label, err)
	}
	jb, err := b.Encode()
	if err != nil {
		t.Fatalf("%s: Encode: %v", label, err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("%s: checkpoints differ:\n--- restore ---\n%s\n--- replay ---\n%s", label, ja, jb)
	}
	if opt.StateCache {
		return
	}
	var finals [2]string
	for i, o := range []Options{opt, replayOpt} {
		final, err := Resume(u, a, o)
		if err != nil {
			t.Fatalf("%s: Resume: %v", label, err)
		}
		finals[i] = restoreDigest(final)
	}
	if finals[0] != finals[1] {
		t.Errorf("%s: resumed searches diverged:\n--- restore ---\n%s--- replay ---\n%s", label, finals[0], finals[1])
	}
	if got, want := resumeDigest(finals[0]), resumeDigest(want); got != want {
		t.Errorf("%s: resumed search diverged from the uninterrupted one:\n--- got ---\n%s--- want ---\n%s", label, got, want)
	}
}

// resumeDigest reduces a restoreDigest to what a resumed search owes the
// uninterrupted one (the resume contract of checkpoint_test.go): it
// drops the replays= field — resuming re-claims units — and the
// dynamic-POR bookkeeping line.
func resumeDigest(digest string) string {
	lines := strings.Split(digest, "\n")
	out := lines[:0]
	for i, l := range lines {
		if i == 0 {
			if a := strings.Index(l, " replays="); a >= 0 {
				l = l[:a] + l[a+1+strings.Index(l[a+1:], " "):]
			}
		}
		if !strings.HasPrefix(l, "por ") {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// walkSchedDepth is the stack walk schedDepth used to be; the running
// count must always equal it.
func (e *engine) walkSchedDepth() int {
	d := e.baseSched
	for _, en := range e.stack {
		if !en.isToss {
			d++
		}
	}
	return d
}

// driveEngine runs a sequential search on a hand-built engine, calling
// setup (if any) once the engine exists and check at every fresh state
// and after every path, and returns the engine's report. It is the
// worker loop on one root unit without the frontier, checkpoints and
// metrics, for tests that need to look inside the engine.
func driveEngine(t *testing.T, u *cfg.Unit, opt Options, setup, check func(e *engine)) *Report {
	t.Helper()
	opt, err := opt.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Resolve(u)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newMachine(res, opt)
	if err != nil {
		t.Fatal(err)
	}
	var e *engine
	opt.testPanicAtState = func([]Decision) bool {
		check(e)
		return false
	}
	e = newEngine(sys, opt, footprints(u), newSiteTable(u), &sharedState{maxStates: opt.MaxStates})
	e.cache = newStateCache(opt)
	if setup != nil {
		setup(e)
	}
	e.prepareUnit(&workUnit{root: true})
	for {
		e.runPathSafe()
		check(e)
		if e.shared.stopped() || !e.backtrack() {
			break
		}
		e.rep.Replays++
	}
	return e.rep
}

// TestSchedDepthMatchesWalk asserts the running scheduling-depth count
// equal to the stack walk at every fresh state and every path end, over
// toss-heavy and dynamic-POR searches.
func TestSchedDepthMatchesWalk(t *testing.T) {
	checks := 0
	for name, u := range restoreCases(t) {
		for _, por := range []PORMode{PORStatic, PORDynamic, POROff} {
			driveEngine(t, u, Options{POR: por, MaxDepth: 30}, nil, func(e *engine) {
				checks++
				if got, want := e.schedDepth(), e.walkSchedDepth(); got != want {
					t.Fatalf("%s por=%s: schedDepth() = %d, stack walk = %d (stack %d entries)",
						name, por, got, want, len(e.stack))
				}
			})
		}
	}
	if checks == 0 {
		t.Fatal("no state was checked")
	}
}

// heavyProgram is two independent processes each signalling its own
// semaphore n times and storing 2*spin times in between: with reduction
// off every state down to depth 2n has two options, and every transition
// logs 2*spin trail entries.
func heavyProgram(n, spin int) string {
	return fmt.Sprintf(`
sem a = 0;
sem b = 0;
proc pa() {
    var i;
    var j;
    var x;
    for (i = 0; i < %[1]d; i = i + 1) {
        signal(a);
        for (j = 0; j < %[2]d; j = j + 1) { x = x + 1; }
    }
}
proc pb() {
    var i;
    var j;
    var x;
    for (i = 0; i < %[1]d; i = i + 1) {
        signal(b);
        for (j = 0; j < %[2]d; j = j + 1) { x = x + 1; }
    }
}
process pa;
process pb;
`, n, spin)
}

// TestTrailCap explores a program whose paths log more than the machine
// keeps (interp's maxTrail, 65 536 entries; a path here logs 108 000):
// the machine drops its log on the way down, the entries above that
// point — their marks dead — are still explored, by one replay each time
// the search comes back to them, the deeper ones still by undoing, and
// the report equals the replay-only one.
func TestTrailCap(t *testing.T) {
	u := mustClose(t, heavyProgram(3, 9000))
	opt := Options{POR: POROff, NoSleep: true, MaxIncidents: 4}
	restore, err := Explore(u, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.testReplayOnly = true
	replay, err := Explore(u, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restoreDigest(restore), restoreDigest(replay); got != want {
		t.Errorf("capped restore diverged from replay:\n--- restore ---\n%s--- replay ---\n%s", got, want)
	}
	if restore.TrailDrops == 0 || replay.TrailDrops != 0 {
		t.Errorf("TrailDrops = %d (replay-only %d), want the log dropped", restore.TrailDrops, replay.TrailDrops)
	}
	if restore.TrailRestores == 0 || restore.TrailRestores >= restore.Replays {
		t.Errorf("%d of %d paths began by an undo, want some and not all", restore.TrailRestores, restore.Replays)
	}
	if restore.ReplaySteps >= replay.ReplaySteps {
		t.Errorf("capped restore re-executed %d transitions, replay %d", restore.ReplaySteps, replay.ReplaySteps)
	}
}

// TestResumedStackIsMarked resumes a dynamic-POR checkpoint, whose unit
// carries the whole decision stack. The rebuilt entries hold no mark, so
// the first path replays the stack — and marks every entry it passes:
// from then on a return to any of them is an undo, one re-executed
// transition like any backtrack. (While only an entry pushed at a fresh
// state could be restored to, every return to a rebuilt one replayed its
// prefix: 27 054 re-executed transitions for this resume's 26 739
// restarts, now 26 775.)
func TestResumedStackIsMarked(t *testing.T) {
	u := mustClose(t, fiveess.Source(fiveess.Scale("medium")))
	opt := Options{POR: PORDynamic, MaxDepth: 40, MaxIncidents: 4}
	snap := cutOnce(t, u, opt, 20000)
	if snap == nil || len(snap.Units) != 1 || len(snap.Units[0].Stack) < 20 {
		t.Fatalf("want a checkpoint of one deep stack-continuation unit, got %+v", snap)
	}
	depth := int64(len(snap.Units[0].Stack))
	restore, err := Resume(u, snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.testReplayOnly = true
	replay, err := Resume(u, snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restoreDigest(restore), restoreDigest(replay); got != want {
		t.Fatalf("resumed searches diverged:\n--- restore ---\n%s--- replay ---\n%s", got, want)
	}
	resumed := restore.Replays - snap.Counters.Replays // path restarts since the checkpoint
	steps := restore.ReplaySteps - snap.Counters.ReplaySteps
	if restore.TrailRestores != resumed-1 || steps > resumed+depth {
		t.Errorf("resumed search: %d restarts, %d by undo, %d transitions re-executed; want all but the first by undo and at most %d (the stack once, then one each)",
			resumed, restore.TrailRestores, steps, resumed+depth)
	}
}

// TestPanicKillsMarks panics at a fresh state in the middle of a path,
// with a mark outstanding on every entry of the stack: the recovery
// abandons them all, so exactly one later path — the next — starts from
// Reset instead of an undo, and the search's findings equal the
// replay-only engine's under the same panic.
func TestPanicKillsMarks(t *testing.T) {
	u := mustClose(t, progs.Philosophers(3))
	for _, por := range []PORMode{PORStatic, PORDynamic, POROff} {
		run := func(replayOnly, panics bool) *Report {
			fired := false
			opt := Options{POR: por, MaxIncidents: 1 << 20, testReplayOnly: replayOnly}
			opt.testPanicAtState = func(dec []Decision) bool {
				if panics && !fired && len(dec) == 5 {
					fired = true
					return true
				}
				return false
			}
			rep, err := Explore(u, opt)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		if clean := run(false, false); clean.TrailRestores != clean.Replays {
			t.Fatalf("por=%s: clean run: %d of %d restarts by undo", por, clean.TrailRestores, clean.Replays)
		}
		restore, replay := run(false, true), run(true, true)
		if restore.InternalErrors != 1 {
			t.Fatalf("por=%s: InternalErrors = %d, want 1", por, restore.InternalErrors)
		}
		if got, want := restoreDigest(restore), restoreDigest(replay); got != want {
			t.Errorf("por=%s: restore diverged from replay:\n--- restore ---\n%s--- replay ---\n%s", por, got, want)
		}
		if restore.TrailRestores != restore.Replays-1 {
			t.Errorf("por=%s: %d of %d restarts by undo, want all but the one after the panic", por, restore.TrailRestores, restore.Replays)
		}
	}
}
