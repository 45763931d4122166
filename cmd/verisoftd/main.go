// Command verisoftd is a long-running exploration job server: it
// accepts MiniC sources — open programs closed automatically, or
// already-closed systems such as `reclose -emit` output — as jobs over
// HTTP/JSON, runs them on a bounded worker pool, and survives the
// failures a long-lived daemon actually meets.
//
// Usage:
//
//	verisoftd [flags]
//
// Endpoints:
//
//	POST   /jobs            submit a job (202 + job view; 429 + Retry-After when saturated)
//	GET    /jobs            list jobs
//	GET    /jobs/{id}       job state and result
//	DELETE /jobs/{id}       cancel a job
//	GET    /jobs/{id}/trace the job's JSONL event stream (submit with "trace": true)
//	GET    /metrics         the obs registry as versioned JSON
//	GET    /healthz         200 ok, 503 while draining
//
// Robustness: the admission queue is bounded with priority-based load
// shedding; transiently failed jobs (worker panics, exhausted attempt
// budgets) retry with capped exponential backoff and resume from their
// last persisted checkpoint; every job state change is journaled with
// atomic file replacement, so a SIGKILLed daemon reboots into a
// consistent job table and finishes its in-flight work. SIGINT/SIGTERM
// drain gracefully — admissions stop, running jobs checkpoint and
// park — and exit 0; a second signal forces an immediate exit 3.
//
// Fault injection (-fault-rules / -fault-seed) arms the same seedable
// fault plan the test suite uses, for soak testing a deployment.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reclose/internal/dist"
	"reclose/internal/explore"
	"reclose/internal/faultinject"
	"reclose/internal/jobs"
	"reclose/internal/obs"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// daemon carries the parsed flags and streams of one invocation so
// tests can drive the whole process in-process.
type daemon struct {
	fs             *flag.FlagSet
	stdout, stderr io.Writer

	addr         string
	dataDir      string
	workers      int
	queueCap     int
	maxAttempts  int
	attemptSt    int64
	attemptTo    time.Duration
	ckptEvery    int64
	backoffBase  time.Duration
	backoffCap   time.Duration
	backoffSeed  uint64
	drainTimeout time.Duration
	faultRules   string
	faultSeed    int64
	distSlice    int64
	distLease    time.Duration
	workerMode   bool
}

func newDaemon(stdout, stderr io.Writer) *daemon {
	d := &daemon{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("verisoftd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: verisoftd [flags]\n")
		fs.PrintDefaults()
	}
	fs.StringVar(&d.addr, "addr", "localhost:7717", "HTTP listen address (use :0 for an ephemeral port; the bound address is printed)")
	fs.StringVar(&d.dataDir, "data", "verisoftd-data", "data directory for the job journal and traces")
	fs.IntVar(&d.workers, "workers", 2, "job worker pool size")
	fs.IntVar(&d.queueCap, "queue-cap", 64, "admission queue bound; beyond it, lower-priority jobs are shed or submissions get 429")
	fs.IntVar(&d.maxAttempts, "max-attempts", 5, "attempts per job before it fails permanently")
	fs.Int64Var(&d.attemptSt, "attempt-states", 0, "default per-attempt state budget; an attempt that exhausts it checkpoints and requeues (0 = unlimited)")
	fs.DurationVar(&d.attemptTo, "attempt-timeout", 0, "default per-attempt wall budget (0 = unlimited)")
	fs.Int64Var(&d.ckptEvery, "checkpoint-every-paths", 64, "checkpoint cadence in completed paths")
	fs.DurationVar(&d.backoffBase, "backoff-base", 100*time.Millisecond, "first retry delay")
	fs.DurationVar(&d.backoffCap, "backoff-cap", 30*time.Second, "retry delay ceiling")
	fs.Uint64Var(&d.backoffSeed, "backoff-seed", 0, "seed for the deterministic retry jitter")
	fs.DurationVar(&d.drainTimeout, "drain-timeout", 30*time.Second, "how long graceful shutdown waits for running jobs to park")
	fs.StringVar(&d.faultRules, "fault-rules", "", "JSON array of fault-injection rules (see internal/faultinject); empty = off")
	fs.Int64Var(&d.faultSeed, "fault-seed", 1, "seed for probabilistic fault-injection rules")
	fs.Int64Var(&d.distSlice, "dist-slice", 0, "per-batch state budget for distributed attempts (0 = default 4096)")
	fs.DurationVar(&d.distLease, "dist-lease", 0, "lease timeout for distributed attempt workers (0 = default 60s)")
	fs.BoolVar(&d.workerMode, "worker-mode", false, "run as a distributed exploration worker over stdin/stdout (spawned by dist_workers attempts, not for interactive use)")
	d.fs = fs
	return d
}

// realMain is main without the process boundary.
func realMain(args []string, stdout, stderr io.Writer) int {
	d := newDaemon(stdout, stderr)
	if err := d.fs.Parse(args); err != nil {
		return 2
	}
	if d.fs.NArg() != 0 {
		d.fs.Usage()
		return 2
	}
	code, err := d.run()
	if err != nil {
		fmt.Fprintf(stderr, "verisoftd: %v\n", err)
		return 1
	}
	return code
}

func (d *daemon) run() (int, error) {
	if d.workerMode {
		// Worker mode: this process is one slot of a distributed
		// attempt, speaking the frame protocol on stdin/stdout; the
		// coordinator (another verisoftd, or a test harness) ships the
		// program, options, and fault plan in the hello frame.
		if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
			return 1, err
		}
		return 0, nil
	}
	var plan *faultinject.Plan
	if d.faultRules != "" {
		p, err := faultinject.Decode(d.faultSeed, []byte(d.faultRules))
		if err != nil {
			return 1, fmt.Errorf("fault-rules: %w", err)
		}
		plan = p
		fmt.Fprintf(d.stderr, "fault injection armed: %s\n", p)
	}

	logger := log.New(d.stderr, "verisoftd: ", log.LstdFlags)
	reg := obs.New()

	// Distributed attempts respawn this very binary in -worker-mode.
	// The VERISOFTD_ARGS override keeps the spawn working when the
	// daemon itself is a re-execed test binary (whose TestMain routes
	// argv through that variable).
	exe, err := os.Executable()
	if err != nil {
		return 1, fmt.Errorf("locating own binary: %w", err)
	}
	distRun := func(ctx context.Context, req *jobs.Request, opt explore.Options, snap *explore.Snapshot) (*explore.Report, error) {
		if opt.Obs == nil {
			// Untraced attempts surface the dist.* counters on the
			// daemon registry; traced ones keep their trace registry.
			opt.Obs = reg
		}
		return dist.Run(ctx, dist.Program{
			Source:      req.Source,
			Close:       req.Close,
			NaiveDomain: req.NaiveDomain,
		}, opt, dist.Config{
			Workers:      req.DistWorkers,
			Command:      []string{exe, "-worker-mode"},
			Env:          []string{"VERISOFTD_ARGS=-worker-mode"},
			SliceStates:  d.distSlice,
			LeaseTimeout: d.distLease,
			Resume:       snap,
			FaultSeed:    d.faultSeed,
			FaultRules:   d.faultRules,
			Logf:         logger.Printf,
		})
	}

	// First SIGINT/SIGTERM: graceful drain — stop admissions,
	// checkpoint and park running jobs, journal everything, exit 0.
	// A second signal while draining forces an immediate exit 3. The
	// handler goes in before jobs.Open starts recovering jobs and before
	// the address line announces readiness, so no signal after either
	// meets Go's default action and skips the drain.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	mgr, err := jobs.Open(jobs.Config{
		DataDir:               d.dataDir,
		Workers:               d.workers,
		QueueCap:              d.queueCap,
		MaxAttempts:           d.maxAttempts,
		DefaultAttemptStates:  d.attemptSt,
		DefaultAttemptTimeout: d.attemptTo,
		CheckpointEveryPaths:  d.ckptEvery,
		Backoff: jobs.Backoff{
			Base: d.backoffBase,
			Cap:  d.backoffCap,
			Seed: d.backoffSeed,
		},
		Obs:     reg,
		Fault:   plan,
		Logf:    logger.Printf,
		DistRun: distRun,
	})
	if err != nil {
		return 1, err
	}

	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		return 1, err
	}
	// The bound address line is a contract: tests (and scripts) listen
	// on :0 and scrape the port from here.
	fmt.Fprintf(d.stdout, "verisoftd: listening on http://%s (data %s, %d workers, queue %d)\n",
		ln.Addr(), d.dataDir, d.workers, d.queueCap)

	srv := &http.Server{Handler: jobs.NewHandler(mgr, reg)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return 1, fmt.Errorf("serve: %w", err)
	case sig := <-sigCh:
		fmt.Fprintf(d.stdout, "verisoftd: %s: draining (second signal forces exit 3)\n", sig)
	}

	forced := make(chan os.Signal, 1)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(d.stderr, "verisoftd: %s during drain: forcing immediate exit\n", sig)
		forced <- sig
	}()

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), d.drainTimeout)
		defer cancel()
		err := mgr.Drain(ctx)
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
		drained <- err
	}()

	select {
	case <-forced:
		return 3, nil
	case err := <-drained:
		if err != nil {
			return 1, err
		}
		fmt.Fprintln(d.stdout, "verisoftd: drained cleanly")
		return 0, nil
	}
}
