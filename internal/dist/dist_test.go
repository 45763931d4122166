package dist

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"reclose/internal/explore"
	"reclose/internal/fiveess"
	"reclose/internal/interp"
	"reclose/internal/obs"
	"reclose/internal/progs"
	"reclose/internal/statecache"
)

// TestMain doubles as the worker binary: Run respawns the test
// executable with RECLOSE_DIST_WORKER=1 and the process becomes a
// real protocol worker over its stdin/stdout — the tests below
// exercise actual multi-process runs, not an in-process simulation.
// RECLOSE_DIST_WORKER=deaf is a worker that ignores the end of its
// session, shutdown frame included: it stays up until it is killed.
func TestMain(m *testing.M) {
	if mode := os.Getenv("RECLOSE_DIST_WORKER"); mode != "" {
		err := WorkerMain(os.Stdin, os.Stdout)
		if mode == "deaf" {
			time.Sleep(time.Minute)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerConfig spawns workers by re-executing this test binary.
func workerConfig(workers int) Config {
	return Config{
		Workers:     workers,
		Command:     []string{os.Args[0]},
		Env:         []string{"RECLOSE_DIST_WORKER=1"},
		SliceStates: 512,
	}
}

// fiveessSmall is a depth-bounded 5ESS switch with the injected
// lock-ordering deadlock: ~14k states, 512 deadlock incidents — big
// enough that every worker count splits it into many slices, small
// enough that the full equivalence grid stays fast.
func fiveessSmall() (Program, explore.Options) {
	src := fiveess.Source(fiveess.Config{
		Handlers: 2, Lines: 1, Features: 2, Chain: 1, Trunks: 2,
		InjectDeadlock: true,
	})
	return Program{Source: src}, explore.Options{MaxDepth: 9, MaxIncidents: 1 << 20}
}

// distDigest renders what a distributed strict-mode run must reproduce
// exactly from the in-process engine: every counter except
// Replays/ReplaySteps (slicing re-replays unit prefixes — the same
// allowance checkpoint/resume has), coverage, and every sample with
// its decision sequence.
func distDigest(rep *explore.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "states=%d transitions=%d paths=%d maxdepth=%d\n",
		rep.States, rep.Transitions, rep.Paths, rep.MaxDepth)
	fmt.Fprintf(&b, "terminated=%d deadlocks=%d violations=%d traps=%d divergences=%d depth-hits=%d sleep-prunes=%d cache-prunes=%d internal-errors=%d\n",
		rep.Terminated, rep.Deadlocks, rep.Violations, rep.Traps, rep.Divergences,
		rep.DepthHits, rep.SleepPrunes, rep.CachePrunes, rep.InternalErrors)
	fmt.Fprintf(&b, "por: backtracks=%d sleep-blocked=%d pruned=%d\n",
		rep.PorBacktracks, rep.PorSleepBlocked, rep.PorDynamicPruned)
	fmt.Fprintf(&b, "coverage=%d/%d\n", rep.OpsCovered, rep.OpsTotal)
	lines := make([]string, 0, len(rep.Samples))
	for _, in := range rep.Samples {
		var l strings.Builder
		fmt.Fprintf(&l, "%s depth=%d msg=%q decisions=", in.Kind, in.Depth, in.Msg)
		for _, d := range in.Decisions {
			fmt.Fprintf(&l, "%s;", d)
		}
		lines = append(lines, l.String())
	}
	// Workers race for frontier units, so merged sample order varies
	// with the schedule; the multiset may not.
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return b.String()
}

// incidentSet renders the distinct incidents of a report — what no
// sound pruning or search order may ever change.
func incidentSet(rep *explore.Report) string {
	seen := map[string]bool{}
	for _, in := range rep.Samples {
		seen[fmt.Sprintf("%s|%d|%s", in.Kind, in.Depth, in.Msg)] = true
	}
	lines := make([]string, 0, len(seen))
	for s := range seen {
		lines = append(lines, s)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func mustOracle(t *testing.T, prog Program, opt explore.Options) *explore.Report {
	t.Helper()
	unit, err := prog.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep, err := explore.Explore(unit, opt)
	if err != nil {
		t.Fatalf("oracle Explore: %v", err)
	}
	return rep
}

func mustRun(t *testing.T, prog Program, opt explore.Options, cfg Config) *explore.Report {
	t.Helper()
	rep, err := Run(context.Background(), prog, opt, cfg)
	if err != nil {
		t.Fatalf("dist Run: %v", err)
	}
	return rep
}

// TestDistEquivalence is the tentpole contract: a multi-process run —
// real worker subprocesses, the wire protocol, bounded slices, the
// deterministic merge — produces results indistinguishable from the
// in-process engine at any worker count. Strict (uncached) configs
// must match the sequential oracle on every counter and every incident
// decision sequence. Cached configs run one private cache per worker
// process: at one worker that is the sequential cached search cut into
// slices, so every counter matches it (the oracle's cache has one shard,
// the worker process's the default sixteen: the count changes no
// counter); at more, which worker meets a
// state first depends on the schedule, and the contract is what no
// sound pruning may change — the stateless oracle's distinct incident
// set — plus evidence that the caches do prune and never cost states.
func TestDistEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process equivalence grid is not short")
	}
	prog, base := fiveessSmall()
	stateless := mustOracle(t, prog, base)
	strictWant := distDigest(stateless)

	cachedOpt := base
	cachedOpt.StateCache = true
	cachedOpt.Cache = statecache.New(statecache.Config{Shards: 1})
	cachedWant := distDigest(mustOracle(t, prog, cachedOpt))
	incidentWant := incidentSet(stateless)

	for _, workers := range []int{1, 2, 4} {
		for _, spill := range []bool{false, true} {
			opt := base
			opt.SnapshotSpill = spill
			name := fmt.Sprintf("strict/w%d/spill=%v", workers, spill)
			t.Run(name, func(t *testing.T) {
				rep := mustRun(t, prog, opt, workerConfig(workers))
				if rep.Incomplete {
					t.Fatalf("distributed run reported incomplete: cause %v", rep.Cause)
				}
				if got := distDigest(rep); got != strictWant {
					t.Errorf("distributed digest diverged from oracle:\n got:\n%s\nwant:\n%s", got, strictWant)
				}
			})
		}
		opt := base
		opt.StateCache = true
		name := fmt.Sprintf("cache/w%d", workers)
		t.Run(name, func(t *testing.T) {
			rep := mustRun(t, prog, opt, workerConfig(workers))
			if rep.Incomplete {
				t.Fatalf("distributed run reported incomplete: cause %v", rep.Cause)
			}
			if workers == 1 {
				if got := distDigest(rep); got != cachedWant {
					t.Errorf("one-worker cached digest diverged from sequential cached oracle:\n got:\n%s\nwant:\n%s", got, cachedWant)
				}
			}
			if got := incidentSet(rep); got != incidentWant {
				t.Errorf("distributed incident set diverged from stateless oracle:\n got:\n%s\nwant:\n%s", got, incidentWant)
			}
			if rep.CachePrunes == 0 {
				t.Errorf("cached run never pruned; the workers' caches are not being visited")
			}
			if rep.States > stateless.States {
				t.Errorf("cached run visited %d states, the stateless search %d", rep.States, stateless.States)
			}
			t.Logf("states=%d cache-prunes=%d (stateless search: %d states)", rep.States, rep.CachePrunes, stateless.States)
		})
	}
}

// TestDistEquivalenceDynamicPOR extends the contract to dynamic POR,
// whose mid-slice cuts ship stack-continuation units (backtrack sets,
// seals) across the wire: the distributed search must find exactly the
// incident set of the stateless oracle — the same relaxation DPOR
// itself is held to.
func TestDistEquivalenceDynamicPOR(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process equivalence grid is not short")
	}
	prog := Program{Source: progs.Philosophers(4)}
	oracle := mustOracle(t, prog, explore.Options{MaxIncidents: 1 << 20})
	want := incidentSet(oracle)
	opt := explore.Options{POR: explore.PORDynamic, MaxIncidents: 1 << 20}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			cfg := workerConfig(workers)
			cfg.SliceStates = 48 // force many mid-path stack-unit cuts
			rep := mustRun(t, prog, opt, cfg)
			if rep.Incomplete {
				t.Fatalf("distributed run reported incomplete: cause %v", rep.Cause)
			}
			if got := incidentSet(rep); got != want {
				t.Errorf("distributed dynamic-POR incident set diverged:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestDistMaxStatesResume checks the truncation cut: a distributed run
// stopped by a global MaxStates budget must report an exact resumable
// snapshot — finishing it in-process lands on the sequential oracle's
// digest, the same contract checkpoint/resume has.
func TestDistMaxStatesResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	prog := Program{Source: progs.Philosophers(4)}
	base := explore.Options{MaxIncidents: 1 << 20}
	oracle := mustOracle(t, prog, base)
	want := distDigest(oracle)

	opt := base
	opt.MaxStates = 150
	cfg := workerConfig(2)
	cfg.SliceStates = 32
	rep := mustRun(t, prog, opt, cfg)
	if !rep.Incomplete || rep.Cause != explore.StopMaxStates {
		t.Fatalf("truncated run: Incomplete=%v Cause=%v, want incomplete StopMaxStates", rep.Incomplete, rep.Cause)
	}
	snap := rep.WireSnapshot()
	if snap == nil || len(snap.Units) == 0 {
		t.Fatalf("truncated distributed run has no pending units to resume")
	}
	unit, err := prog.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rest, err := explore.Resume(unit, snap, base)
	if err != nil {
		t.Fatalf("in-process Resume of distributed snapshot: %v", err)
	}
	if got := distDigest(rest); got != want {
		t.Errorf("resume of distributed truncation diverged from oracle:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestWorkerCrashRecovery kills real worker processes mid-batch and
// asserts the search recovers without losing or duplicating
// work: the final report is identical to an undisturbed distributed
// run and to the in-process oracle. Three seeded schedules cover the
// failure surface: a panic before the slice runs (the batch dies
// unstarted), a panic after the slice computes but before the result
// ships (the nastier half of exactly-once — the search must not
// count the lost result AND must re-explore its units), and a hang
// that the lease timeout resolves by SIGKILLing the worker.
func TestWorkerCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	prog, opt := fiveessSmall()
	want := distDigest(mustOracle(t, prog, opt))

	schedules := []struct {
		name  string
		rules string
		seed  int64
		lease time.Duration
	}{
		{
			name:  "panic-before-slice",
			rules: `[{"point":"dist.worker.batch","action":"panic","count":1}]`,
		},
		{
			name:  "panic-before-result",
			rules: `[{"point":"dist.worker.result","action":"panic","count":1}]`,
		},
		{
			name: "random-panics-seeded",
			// Both points armed probabilistically: whichever subset
			// fires, the merge must come out identical.
			rules: `[{"point":"dist.worker.batch","action":"panic","prob":0.5,"count":2},` +
				`{"point":"dist.worker.result","action":"panic","prob":0.5,"count":2}]`,
			seed: 42,
		},
		{
			name:  "hang-until-lease-timeout",
			rules: `[{"point":"dist.worker.batch","action":"sleep","sleep_ms":20000,"count":1}]`,
			lease: 750 * time.Millisecond,
		},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			reg := obs.New()
			o := opt
			o.Obs = reg
			cfg := workerConfig(2)
			cfg.FaultSeed = sc.seed
			cfg.FaultRules = sc.rules
			if sc.lease > 0 {
				cfg.LeaseTimeout = sc.lease
			}
			cfg.Logf = t.Logf
			rep := mustRun(t, prog, o, cfg)
			if rep.Incomplete {
				t.Fatalf("crash-recovery run reported incomplete: cause %v", rep.Cause)
			}
			if got := distDigest(rep); got != want {
				t.Errorf("post-crash merge diverged from oracle:\n got:\n%s\nwant:\n%s", got, want)
			}
			deaths := reg.Counter(MetricWorkerDeaths).Load()
			respawns := reg.Counter(MetricWorkerRespawns).Load()
			if sc.name != "random-panics-seeded" && deaths == 0 {
				t.Errorf("fault schedule never killed a worker; the recovery path was not exercised")
			}
			if deaths != respawns {
				t.Errorf("deaths=%d respawns=%d; every death must respawn in uncached mode", deaths, respawns)
			}
			t.Logf("deaths=%d respawns=%d reassigned=%d", deaths, respawns,
				reg.Counter(MetricUnitsReassigned).Load())
		})
	}
}

// TestWorkerCrashRecoveryCached kills a worker of a cached run: the
// death is the ordinary one — leases back to the frontier, the slot
// respawned with an empty cache, nothing merged is thrown away — and
// the run still reports the stateless oracle's incident set.
func TestWorkerCrashRecoveryCached(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	prog, base := fiveessSmall()
	want := incidentSet(mustOracle(t, prog, base))

	reg := obs.New()
	opt := base
	opt.StateCache = true
	opt.Obs = reg
	cfg := workerConfig(2)
	cfg.FaultRules = `[{"point":"dist.worker.batch","action":"panic","after":1,"count":1}]`
	cfg.Logf = t.Logf
	rep := mustRun(t, prog, opt, cfg)
	if rep.Incomplete {
		t.Fatalf("cached crash-recovery run reported incomplete: cause %v", rep.Cause)
	}
	if got := incidentSet(rep); got != want {
		t.Errorf("cached crash-recovery run incident set diverged:\n got:\n%s\nwant:\n%s", got, want)
	}
	deaths := reg.Counter(MetricWorkerDeaths).Load()
	respawns := reg.Counter(MetricWorkerRespawns).Load()
	if deaths == 0 {
		t.Errorf("fault schedule never killed a worker; the recovery path was not exercised")
	}
	if deaths != respawns {
		t.Errorf("deaths=%d respawns=%d; a cached run's death must respawn the one slot, like an uncached run's", deaths, respawns)
	}
	for _, name := range reg.CounterNames() {
		if name == "dist.restarts" {
			t.Errorf("a dist.restarts counter exists; a cached run has no restart-everything recovery")
		}
	}
}

// TestShutdownGraceExpires shuts down a fleet of one worker that exits
// on the shutdown frame and one that ignores it, so the grace period
// really expires: the reaper has already seen the first exit and is
// waiting on the second when waitAll has to decide whom to kill. Both
// must end up reaped; under -race this is the test that watches waitAll.
func TestShutdownGraceExpires(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	f := &fleet{
		cfg:   workerConfig(2).withDefaults(),
		hello: Hello{Version: ProtocolVersion, Program: Program{Source: progs.Philosophers(3)}},
		procs: make([]*proc, 2),
	}
	defer f.killAll()
	cmds := make([]*exec.Cmd, len(f.procs))
	for slot, mode := range []string{"1", "deaf"} {
		// A -race build sleeps a second on its way out unless told not
		// to, which would keep the first worker up past the grace period.
		f.cfg.Env = []string{"RECLOSE_DIST_WORKER=" + mode, "GORACE=atexit_sleep_ms=0"}
		p := &proc{fleet: f, slot: slot}
		f.procs[slot] = p
		if err := p.spawn(false); err != nil {
			t.Fatal(err)
		}
		cmds[slot] = p.cmd
	}
	for _, p := range f.procs {
		if m, err := ReadFrame(p.stdout); err != nil || m.Type != MsgReady {
			t.Fatalf("worker %d did not come up: %+v, %v", p.slot, m, err)
		}
	}
	for _, p := range f.procs {
		if err := WriteFrame(p.stdin, &Message{Type: MsgShutdown}); err != nil {
			t.Fatal(err)
		}
		p.stdin.Close()
	}
	const grace = 300 * time.Millisecond
	start := time.Now()
	f.waitAll(grace)
	if took := time.Since(start); took < grace {
		t.Errorf("waitAll returned after %v; the deaf worker did not outlive the %v grace period", took, grace)
	}
	for slot, p := range f.procs {
		if p.cmd != nil || cmds[slot].ProcessState == nil {
			t.Errorf("worker %d: still in its slot=%v reaped=%v after waitAll", slot, p.cmd != nil, cmds[slot].ProcessState != nil)
		}
	}
	if st := cmds[1].ProcessState; st != nil && st.Exited() {
		t.Errorf("the deaf worker exited on its own (%v); it was meant to be killed", st)
	}
}

// TestRunLeavesNothingBehind checks what a long-lived caller — verisoftd
// calls Run once per distributed attempt — needs of every way Run can
// end: no goroutine it started is alive and no child process is left,
// running or unreaped.
func TestRunLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	prog, opt := fiveessSmall()
	badEngine := opt
	badEngine.Engine = interp.EngineKind(99) // the workers cannot decode it: an error frame
	for _, tc := range []struct {
		name    string
		opt     explore.Options
		rules   string
		cancel  time.Duration // cancel the run this long after it starts
		wantErr string
	}{
		{name: "complete", opt: opt},
		{name: "cancelled-mid-batch", opt: opt, cancel: 500 * time.Millisecond,
			rules: `[{"point":"dist.worker.batch","action":"sleep","sleep_ms":20000,"after":2}]`},
		{name: "worker-death", opt: opt,
			rules: `[{"point":"dist.worker.result","action":"panic","count":1}]`},
		{name: "error-frame", opt: badEngine, wantErr: "EngineKind(99)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel > 0 {
				time.AfterFunc(tc.cancel, cancel)
			}
			cfg := workerConfig(2)
			cfg.FaultRules = tc.rules
			rep, err := Run(ctx, prog, tc.opt, cfg)
			switch {
			case tc.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("Run = (%v, %v), want an error naming %s", rep, err, tc.wantErr)
				}
			case err != nil:
				t.Fatalf("Run: %v", err)
			case tc.cancel > 0:
				if !rep.Incomplete || rep.Cause != explore.StopCancelled {
					t.Errorf("Incomplete=%v Cause=%v, want a cancelled run", rep.Incomplete, rep.Cause)
				}
			case rep.Incomplete:
				t.Errorf("run reported incomplete: cause %v", rep.Cause)
			}
			// Every child was waited for: the process has none left.
			var ws syscall.WaitStatus
			if pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil); err != syscall.ECHILD {
				t.Errorf("Wait4 = (%d, %v) after Run returned, want ECHILD: a worker process is still there", pid, err)
			}
			// The timers' and the context's callbacks may be on their way
			// out; nothing else is allowed to be.
			for i := 0; runtime.NumGoroutine() > before; i++ {
				if i == 100 {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before Run, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestDistStopPolicies checks that a worker-detected incident the stop
// policy names aborts the whole fleet the way the in-process engine
// aborts its workers: the report is incomplete with the incident merged.
// The incident policy is the one the version-2 wire form dropped.
func TestDistStopPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	for _, tc := range []struct {
		src  string
		stop explore.StopCause
	}{
		{progs.AssertViolation, explore.StopViolation},
		{progs.DeadlockProne, explore.StopIncident},
	} {
		opt := explore.Options{Stop: tc.stop, MaxIncidents: 1 << 20}
		cfg := workerConfig(2)
		cfg.SliceStates = 16
		rep := mustRun(t, Program{Source: tc.src}, opt, cfg)
		if rep.Incidents() == 0 {
			t.Fatalf("stop %s: the run found no incident", tc.stop)
		}
		if !rep.Incomplete || rep.Cause != tc.stop {
			t.Errorf("stop %s: Incomplete=%v Cause=%v, want incomplete %v", tc.stop, rep.Incomplete, rep.Cause, tc.stop)
		}
	}
}

// TestDistWorkerStats checks the per-worker accounting: unit/state/path
// totals across workers must sum to the report's, because they are
// measured as merge deltas.
func TestDistWorkerStats(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	prog, opt := fiveessSmall()
	rep := mustRun(t, prog, opt, workerConfig(2))
	if len(rep.WorkerStats) != 2 {
		t.Fatalf("got %d worker stats, want 2", len(rep.WorkerStats))
	}
	var states, paths int64
	for _, ws := range rep.WorkerStats {
		states += ws.States
		paths += ws.Paths
	}
	if states != rep.States || paths != rep.Paths {
		t.Errorf("worker stats sum to states=%d paths=%d, report says %d/%d",
			states, paths, rep.States, rep.Paths)
	}
}
