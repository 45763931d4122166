// Command verisoft systematically explores the state space of a MiniC
// program, in the style of the VeriSoft tool the paper builds on: a
// stateless depth-first search with partial-order reduction that detects
// deadlocks, assertion violations, run-time errors, and divergences.
//
// Usage:
//
//	verisoft [flags] file.mc
//
// Open programs are closed first: automatically with the paper's
// transformation (default), or naively by composing an explicit most
// general environment over a finite domain (-naive D).
//
// Long runs are resilient: -timeout bounds wall-clock time (of every
// -shortest round together), -checkpoint
// periodically persists the search frontier (atomically: write temp,
// fsync, rename), -resume continues from a checkpoint, and
// SIGINT/SIGTERM stop the search gracefully (writing a final
// checkpoint when -checkpoint is set); a second signal during the
// drain forces an immediate exit 3. Exit codes are CI-friendly: 0
// clean, 1 error, 2 usage, 3 incidents found (or forced exit), 4
// search incomplete (timeout, budget, or interrupt) without incidents.
//
// Observability: every run fills a metrics registry (internal/obs)
// whose counters the engines publish themselves and therefore equal the
// report's when the search ends. -metrics-out writes the final registry as
// versioned JSON, -trace-out streams structured JSONL events (run
// start/stop, incidents, checkpoints, truncation, per-worker stats),
// and -cpuprofile writes a CPU profile of the whole run. The summary:
// line is rendered from the registry, so CLI output, metrics file, and
// report can never disagree.
package main

import (
	"context"
	"encoding"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"sync"
	"syscall"
	"time"

	"reclose/internal/atomicio"
	"reclose/internal/dist"
	"reclose/internal/explore"
	"reclose/internal/mgenv"
	"reclose/internal/obs"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// exitNow terminates the process on a forced (second-signal) exit.
// It is a variable only so the forced path exists as a seam; the
// subprocess tests exercise the real os.Exit.
var exitNow = os.Exit

// testSignals, when non-nil, replaces the OS signal subscription so
// tests can feed the interrupt handler deterministically.
var testSignals chan os.Signal

// cli carries the parsed flags and output streams of one invocation, so
// tests drive the whole command in-process. The search's flags bind
// straight into opt; the rest concern the CLI alone.
type cli struct {
	fs             *flag.FlagSet
	stdout, stderr io.Writer

	opt explore.Options
	// modeErr holds, by flag name, what -engine or -por made of
	// its value (nil: parsed): an unknown name is a refused option set —
	// exit 1 with the mode's own message — not a usage error.
	modeErr map[string]error

	naive       int
	replay      bool
	shortest    bool
	distWorkers int
	distSlice   int64
	distLease   time.Duration
	workerMode  bool
	progress    time.Duration
	timeout     time.Duration

	ckptFile  string
	resumeFrm string

	metricsOut string
	traceOut   string
	cpuProfile string
}

func newCLI(stdout, stderr io.Writer) *cli {
	c := &cli{stdout: stdout, stderr: stderr, modeErr: map[string]error{}}
	o := &c.opt
	fs := flag.NewFlagSet("verisoft", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: verisoft [flags] file.mc (use - for stdin)\n")
		fs.PrintDefaults()
	}
	for _, m := range []struct {
		name, usage string
		v           encoding.TextUnmarshaler
	}{
		{"engine", "interpreter: bytecode (the compiled machine: flat bytecode + incremental hashing, the default) or ref (reference oracle)", &o.Engine},
		{"por", "partial-order reduction: static (persistent sets, the default), dynamic (Flanagan-Godefroid backtrack sets; refused with -liveness), or off", &o.POR},
	} {
		fs.Func(m.name, m.usage, func(s string) error {
			c.modeErr[m.name] = m.v.UnmarshalText([]byte(s))
			return nil
		})
	}
	fs.IntVar(&o.MaxDepth, "depth", 0, "depth bound on explored paths (0 = default 1e6)")
	fs.Int64Var(&o.MaxStates, "max-states", 0, "abort after visiting this many global states (0 = unlimited)")
	fs.IntVar(&c.naive, "naive", 0, "close naively with an explicit most general environment over domain [0,D) instead of transforming")
	fs.BoolVar(&o.NoSleep, "no-sleep", false, "disable sleep sets")
	fs.BoolVar(&o.StateCache, "state-cache", false, "remember visited states and prune a path that reaches one again, no shallower than before and with the same sleep set; a state evicted under -cache-mem is explored again when met, so eviction costs time, never soundness")
	fs.Int64Var(&o.MaxCacheBytes, "cache-mem", 0, "state-cache budget in bytes, per worker process under -dist-workers, charged per entry the rendered state fingerprint's length plus 96 — more than the entry occupies (the cache: line's resident); over budget, cold entries are evicted (0 = unbounded; requires -state-cache)")
	fs.BoolFunc("stop-on-violation", "stop at the first assertion violation or runtime error", func(s string) error {
		on, err := strconv.ParseBool(s)
		o.Stop = explore.StopNone
		if on {
			o.Stop = explore.StopViolation
		}
		return err
	})
	fs.BoolVar(&o.Liveness, "liveness", false, "detect non-progress cycles (livelock) with a nested DFS; progress is declared with the MiniC `progress` label, defaulting to every visible op (refused with -por=dynamic and -snapshot-spill)")
	fs.IntVar(&o.MaxIncidents, "samples", 4, "incident samples to keep and print")
	fs.BoolVar(&c.replay, "replay", false, "replay the first incident step by step after the search")
	fs.BoolVar(&c.shortest, "shortest", false, "find a minimal-depth incident by iterative deepening instead of a full search")
	fs.IntVar(&o.Workers, "workers", 0, "search workers (0 = the search loop inline in classic depth-first order, -1 = GOMAXPROCS)")
	fs.IntVar(&o.SpillDepth, "spill-depth", 0, "depth above which workers spill sibling subtrees to the shared frontier (0 = default 16)")
	fs.BoolVar(&o.SnapshotSpill, "snapshot-spill", false, "attach state snapshots to spilled work units so claimers skip prefix replay (-workers > 0; refused with -liveness)")
	fs.IntVar(&c.distWorkers, "dist-workers", 0, "distribute the search across this many worker OS processes (0 = in-process); results merge deterministically, byte-identical to the in-process engine (with -state-cache each process keeps its own cache: same incidents, schedule-dependent counters)")
	fs.Int64Var(&c.distSlice, "dist-slice", 0, "per-batch state budget a distributed worker explores before reporting back (0 = default 4096; requires -dist-workers)")
	fs.DurationVar(&c.distLease, "dist-lease", 0, "lease timeout after which a distributed worker is declared dead and its work reassigned (0 = default 60s; requires -dist-workers)")
	fs.BoolVar(&c.workerMode, "worker-mode", false, "run as a distributed exploration worker speaking the frame protocol on stdin/stdout (spawned by a -dist-workers coordinator, not for interactive use)")
	fs.DurationVar(&c.progress, "progress", 0, "print progress lines at this interval (0 = off)")
	fs.DurationVar(&c.timeout, "timeout", 0, "wall-clock budget for the search, every -shortest round included; on expiry the partial result is reported (0 = unlimited)")
	fs.StringVar(&c.ckptFile, "checkpoint", "", "write checkpoint snapshots to this file (periodically with -checkpoint-every, and on interrupt or budget exhaustion)")
	fs.DurationVar(&o.CheckpointEvery, "checkpoint-every", 0, "period between checkpoints (requires -checkpoint; 0 = only final)")
	fs.StringVar(&c.resumeFrm, "resume", "", "resume the search from a checkpoint file written by -checkpoint")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the final metrics registry to this file as versioned JSON")
	fs.StringVar(&c.traceOut, "trace-out", "", "stream structured JSONL events (run start/stop, incidents, checkpoints) to this file")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the run (closing included) to this file")
	c.fs = fs
	return c
}

// startProgress prints a progress: line every -progress period from the
// registry's counters, which each engine publishes every few hundred
// paths and at the end of each unit (a slice at a time under
// -dist-workers), and returns the function that stops it and prints the
// last line, whose counts are the summary: line's. Without -progress it
// prints nothing.
func (c *cli) startProgress(reg *obs.Registry, start time.Time) (stop func()) {
	if c.progress <= 0 {
		return func() {}
	}
	line := func() {
		fmt.Fprintf(c.stderr, "progress: states=%d transitions=%d paths=%d incidents=%d elapsed=%s\n",
			reg.Counter(explore.MetricStates).Load(), reg.Counter(explore.MetricTransitions).Load(),
			reg.Counter(explore.MetricPaths).Load(), reg.Counter(explore.MetricIncidents).Load(),
			time.Since(start).Round(time.Millisecond))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(c.progress)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				line()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		line()
	}
}

// realMain is main without the process boundary: it parses args, runs
// the search, and returns the exit code, writing to the given streams.
func realMain(args []string, stdout, stderr io.Writer) int {
	c := newCLI(stdout, stderr)
	if err := c.fs.Parse(args); err != nil {
		return 2
	}
	code, err := c.run()
	if err != nil {
		fmt.Fprintf(stderr, "verisoft: %v\n", err)
		return 1
	}
	return code
}

func (c *cli) run() (int, error) {
	if c.workerMode {
		// Worker mode never touches argv sources or flags beyond this
		// point: the coordinator ships everything (program, options,
		// fault plan) in the hello frame.
		if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
			return 1, err
		}
		return 0, nil
	}
	if c.fs.NArg() != 1 {
		c.fs.Usage()
		return 2, nil
	}
	// The profile is stopped on every way out: by the deferred call, or
	// before a forced exit.
	stopProfile := func() {}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return 1, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return 1, fmt.Errorf("cpuprofile: %w", err)
		}
		stopProfile = sync.OnceFunc(func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(c.stderr, "verisoft: cpuprofile: %v\n", err)
			}
		})
		defer stopProfile()
	}
	src, err := readSource(c.fs.Arg(0))
	if err != nil {
		return 1, err
	}
	for _, name := range []string{"engine", "por"} {
		if err := c.modeErr[name]; err != nil {
			return 1, err
		}
	}
	opt := c.opt
	if c.distWorkers > 0 && c.shortest {
		return 1, fmt.Errorf("-dist-workers does not compose with -shortest")
	}
	if c.distWorkers < 0 {
		return 1, fmt.Errorf("-dist-workers must be >= 0")
	}
	if (c.distSlice != 0 || c.distLease != 0) && c.distWorkers == 0 {
		return 1, fmt.Errorf("-dist-slice and -dist-lease require -dist-workers")
	}
	if _, err := opt.Resolve(); err != nil {
		return 1, err
	}

	closeMode := "auto"
	if c.naive > 0 {
		closeMode = "naive"
	}
	unit, how, err := mgenv.Prepare(string(src), closeMode, c.naive)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(c.stdout, "prepared system: %s (engine %s)\n", how, opt.Engine)
	if opt.StateCache && c.distWorkers > 1 {
		// Not the one shared cache of -workers N: pruning, and so every
		// counter, depends on which process meets a state first.
		fmt.Fprintf(c.stdout, "state cache: private to each of %d worker processes\n", c.distWorkers)
	}

	// Every run carries a registry: the engine flushes its counters into
	// it, the summary: line reads from it, and -metrics-out persists it.
	reg := obs.New()
	var traceFile *os.File
	if c.traceOut != "" {
		traceFile, err = os.Create(c.traceOut)
		if err != nil {
			return 1, fmt.Errorf("trace-out: %w", err)
		}
		defer traceFile.Close()
		reg.SetSink(obs.NewSink(traceFile))
	}

	opt.Obs = reg
	if c.ckptFile != "" && opt.CheckpointEvery > 0 {
		opt.Checkpoint = func(s *explore.Snapshot) {
			if err := writeSnapshot(c.ckptFile, s); err != nil {
				fmt.Fprintf(c.stderr, "verisoft: checkpoint: %v\n", err)
			}
		}
	}

	// SIGINT/SIGTERM stop the search gracefully: workers drain to path
	// boundaries, the partial report is printed, and — with -checkpoint
	// — the remaining work is persisted. A second signal during that
	// drain means the user wants out NOW: the process exits immediately
	// with code 3 (the incident code — an interrupted drain is itself
	// an incident worth failing CI over).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	searchDone := make(chan struct{})
	defer close(searchDone)
	sigCh := testSignals
	if sigCh == nil {
		sigCh = make(chan os.Signal, 2)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
	}
	// nextSignal returns the next signal, or nil once the search is done.
	// A queued signal comes first, so two rapid-fire interrupts force the
	// exit even when the drain itself finishes between them.
	nextSignal := func() os.Signal {
		select {
		case sig := <-sigCh:
			return sig
		default:
		}
		select {
		case sig := <-sigCh:
			return sig
		case <-searchDone:
			return nil
		}
	}
	go func() {
		sig := nextSignal()
		if sig == nil {
			return
		}
		fmt.Fprintf(c.stderr, "verisoft: %s: draining gracefully (second signal forces exit 3)\n", sig)
		cancel()
		if sig = nextSignal(); sig != nil {
			fmt.Fprintf(c.stderr, "verisoft: %s during drain: forcing immediate exit\n", sig)
			stopProfile()
			exitNow(3)
		}
	}()

	// The search's wall-clock budget is a deadline on its context: the
	// search reports it as a timeout, not a cancellation.
	if c.timeout > 0 {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(ctx, c.timeout)
		defer stop()
	}
	start := time.Now()
	stopProgress := sync.OnceFunc(c.startProgress(reg, start))
	defer stopProgress()
	var rep *explore.Report
	switch {
	case c.shortest:
		in, r, err := explore.ShortestWitness(ctx, unit, opt)
		if err != nil {
			return 1, err
		}
		rep = r
		switch {
		case in != nil && opt.POR == explore.PORDynamic:
			fmt.Fprintf(c.stdout, "incident: %s at depth %d (some witness, not minimal: dynamic POR)\n", in.Kind, in.Depth)
		case in != nil:
			fmt.Fprintf(c.stdout, "shortest incident: %s at depth %d (minimal)\n", in.Kind, in.Depth)
		case rep.Incomplete:
			fmt.Fprintln(c.stdout, "no incident found before the search was cut")
		default:
			fmt.Fprintln(c.stdout, "no incident within the depth limit")
		}
	default:
		var snap *explore.Snapshot
		if c.resumeFrm != "" {
			data, err := os.ReadFile(c.resumeFrm)
			if err != nil {
				return 1, err
			}
			snap, err = explore.DecodeSnapshot(data)
			if err != nil {
				return 1, err
			}
			fmt.Fprintf(c.stdout, "resuming: %d work units, %d states already explored\n",
				len(snap.Units), snap.Counters.States)
		}
		switch {
		case c.distWorkers > 0:
			var exe string
			if exe, err = os.Executable(); err != nil {
				return 1, fmt.Errorf("dist-workers: locating own binary: %w", err)
			}
			rep, err = dist.Run(ctx, dist.Program{Source: string(src), Close: closeMode, NaiveDomain: c.naive}, opt, dist.Config{
				Workers:      c.distWorkers,
				Command:      []string{exe, "-worker-mode"},
				SliceStates:  c.distSlice,
				LeaseTimeout: c.distLease,
				Resume:       snap,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(c.stderr, format+"\n", args...)
				},
			})
		case snap != nil:
			rep, err = explore.ResumeContext(ctx, unit, snap, opt)
		default:
			rep, err = explore.ExploreContext(ctx, unit, opt)
		}
		if err != nil {
			return 1, err
		}
	}
	elapsed := time.Since(start)
	stopProgress()

	fmt.Fprintf(c.stdout, "search: %s\n", rep)
	if s := rep.CacheSummary(); s != "" {
		fmt.Fprintf(c.stdout, "cache: %s\n", s)
	}
	if rep.Incomplete {
		fmt.Fprintf(c.stdout, "incomplete: search stopped early (%s); counters cover the explored part only\n", rep.Cause)
	}
	fmt.Fprintf(c.stdout, "elapsed: %v (%.0f transitions/s)\n", elapsed.Round(time.Millisecond),
		float64(rep.Transitions)/elapsed.Seconds())
	if rep.Workers > 0 {
		fmt.Fprintf(c.stdout, "workers: %d (replayed %d prefix transitions)\n", rep.Workers, rep.ReplaySteps)
		for i, ws := range rep.WorkerStats {
			fmt.Fprintf(c.stdout, "  W%d: units=%d states=%d paths=%d busy=%s util=%.0f%%\n",
				i, ws.Units, ws.States, ws.Paths, ws.Busy.Round(time.Millisecond), 100*ws.Utilization)
		}
	}
	verdict := "no deadlocks, violations, or errors found"
	if opt.Liveness {
		verdict = "no deadlocks, violations, livelocks, or errors found"
	}
	if rep.Incidents() > 0 {
		verdict = fmt.Sprintf("FOUND: %d deadlock(s), %d violation(s), %d error(s), %d divergence(s), %d internal error(s)",
			rep.Deadlocks, rep.Violations, rep.Traps, rep.Divergences, rep.InternalErrors)
		if opt.Liveness {
			verdict += fmt.Sprintf(", %d livelock(s)", rep.Livelocks)
		}
	}
	fmt.Fprintf(c.stdout, "coverage: %d/%d visible operations exercised\n", rep.OpsCovered, rep.OpsTotal)
	fmt.Fprintln(c.stdout, verdict)
	// The summary line reads from the registry the engine filled — the
	// same source -metrics-out persists — so the three views (CLI,
	// metrics file, Report) always agree.
	fmt.Fprintln(c.stdout, explore.RegistrySummary(reg, elapsed))
	if rep.RedCut > 0 {
		// "No livelock" is not backed where a red search ran out of
		// budget: say so next to the verdict.
		fmt.Fprintf(c.stdout, "liveness: incomplete (%d of %d red searches cut at %d states)\n",
			rep.RedCut, rep.RedSearches, explore.RedStateBudget)
	}
	for i, in := range rep.Samples {
		if i >= opt.MaxIncidents {
			break
		}
		fmt.Fprintf(c.stdout, "--- sample %d ---\n%s", i+1, in)
	}
	if c.replay && len(rep.Samples) > 0 {
		in := rep.Samples[0]
		fmt.Fprintf(c.stdout, "--- replaying sample 1 (%d decisions) ---\n", len(in.Decisions))
		_, out, err := explore.Replay(unit, in.Decisions, func(st explore.ReplayStep) {
			if st.HasEvent {
				fmt.Fprintf(c.stdout, "  %-10s -> %s\n", st.Decision, st.Event)
			} else {
				fmt.Fprintf(c.stdout, "  %-10s\n", st.Decision)
			}
		})
		if err != nil {
			return 1, fmt.Errorf("replay: %w", err)
		}
		if out != nil {
			fmt.Fprintf(c.stdout, "  outcome: %s\n", out)
		} else {
			fmt.Fprintln(c.stdout, "  outcome: final state reached (see incident kind)")
		}
	}

	// A final checkpoint preserves the remaining work of an interrupted
	// or budget-cut search.
	if c.ckptFile != "" && rep.Incomplete {
		if snap := rep.Snapshot(); snap != nil {
			if err := writeSnapshot(c.ckptFile, snap); err != nil {
				return 1, fmt.Errorf("final checkpoint: %w", err)
			}
			fmt.Fprintf(c.stdout, "checkpoint: remaining work written to %s (%d units); resume with -resume %s\n",
				c.ckptFile, len(snap.Units), c.ckptFile)
		}
	}

	if c.metricsOut != "" {
		mf, err := os.Create(c.metricsOut)
		if err != nil {
			return 1, fmt.Errorf("metrics-out: %w", err)
		}
		werr := reg.WriteMetrics(mf)
		if cerr := mf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return 1, fmt.Errorf("metrics-out: %w", werr)
		}
	}
	if traceFile != nil {
		if err := reg.Sink().Err(); err != nil {
			return 1, fmt.Errorf("trace-out: %w", err)
		}
	}

	// Exit codes, in priority order: incidents beat incompleteness
	// (a partial search that already found a bug should fail CI the
	// same way a complete one does).
	switch {
	case rep.Incidents() > 0:
		return 3, nil
	case rep.Incomplete:
		return 4, nil
	}
	return 0, nil
}

// writeSnapshot persists a snapshot atomically (write temp, fsync,
// rename, fsync dir — atomicio), so neither a crash mid-write nor a
// power cut can corrupt or lose the previous checkpoint.
func writeSnapshot(path string, s *explore.Snapshot) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, data, 0o644)
}

func readSource(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}
