package dist

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync/atomic"
	"time"

	"reclose/internal/explore"
	"reclose/internal/faultinject"
)

// Config tunes a distributed run. Zero values select the defaults noted
// on each field.
type Config struct {
	// Workers is the number of worker OS processes (required, >= 1).
	Workers int
	// Command is the argv spawning one worker process, which must run
	// WorkerMain over its stdin/stdout (e.g. ["verisoft",
	// "-worker-mode"]). Required.
	Command []string
	// Env is extra environment (KEY=VAL) appended to the parent's for
	// each worker.
	Env []string
	// SliceStates is the per-batch state budget a worker explores
	// before returning a partial report; 0 means 4096. Smaller slices
	// rebalance faster and checkpoint finer; larger slices amortize
	// protocol overhead.
	SliceStates int64
	// LeaseTimeout is how long a worker may take over one batch before
	// it is declared dead and the batch's units are reassigned; 0 means
	// 60s. It must comfortably exceed a slice's worst wall time.
	LeaseTimeout time.Duration
	// Resume seeds the run from a checkpoint snapshot (the merged
	// counters become the starting totals, the snapshot's units the
	// starting frontier), exactly like the in-process Resume. Nil
	// starts from the root.
	Resume *explore.Snapshot
	// FaultSeed/FaultRules arm a fault plan inside first-generation
	// workers (dist.worker.* points). Respawned workers run clean: the
	// armed fault simulates a crash, and re-arming it would make
	// crash-recovery tests non-terminating.
	FaultSeed  int64
	FaultRules string
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// maxRespawns caps the respawns of one worker slot before the run
// aborts.
const maxRespawns = 8

func (c Config) withDefaults() Config {
	if c.SliceStates <= 0 {
		c.SliceStates = 4096
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 60 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// fleet is what the worker processes of one run have in common.
type fleet struct {
	cfg   Config
	hello Hello // without the fault plan, which only first spawns get
	met   *distMetrics
	plan  *faultinject.Plan
	// batches numbers the batch frames of the run.
	batches atomic.Uint64
	procs   []*proc
}

// proc is one worker slot: the process now filling it and its pipes. It
// is the explore.Slicer of one slice worker, whose goroutine is the only
// one to touch it while the search runs.
type proc struct {
	*fleet
	slot     int
	respawns int
	cmd      *exec.Cmd // nil while the slot is empty
	stdin    io.WriteCloser
	stdout   io.Reader
}

// Run explores prog under opt across cfg.Workers worker processes and
// returns the merged report. The search is explore's own driver with one
// slice worker per process (explore.Distribute), so the report satisfies
// the contracts of the in-process search: strict modes are byte-identical
// to a sequential run (modulo Replays/ReplaySteps, as with checkpoint
// resume), dynamic POR keeps the incident-set contract, and an
// Incomplete report's snapshot is an exact cut.
func Run(ctx context.Context, prog Program, opt explore.Options, cfg Config) (*explore.Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("dist: Workers must be >= 1")
	}
	if len(cfg.Command) == 0 {
		return nil, fmt.Errorf("dist: Command is required")
	}
	// Refused here, not by every worker process the run would spawn.
	if _, err := opt.Resolve(); err != nil {
		return nil, err
	}
	unit, err := prog.Compile()
	if err != nil {
		return nil, err
	}
	f := &fleet{
		cfg:   cfg,
		hello: Hello{Version: ProtocolVersion, Program: prog, Options: opt},
		met:   newDistMetrics(opt.Obs),
		plan:  opt.Fault,
		procs: make([]*proc, cfg.Workers),
	}
	defer f.killAll()

	f.met.emitStart(cfg.Workers, opt.StateCache)
	slicers := make([]explore.Slicer, cfg.Workers)
	for slot := range f.procs {
		p := &proc{fleet: f, slot: slot}
		f.procs[slot], slicers[slot] = p, p
		if err := p.spawn(true); err != nil {
			return nil, err
		}
	}
	rep, err := explore.Distribute(ctx, unit, cfg.Resume, opt, slicers, cfg.SliceStates)
	if err != nil {
		return nil, err
	}
	for _, p := range f.procs {
		if p.cmd != nil {
			// A worker the frame does not reach is one waitAll kills.
			_ = WriteFrame(p.stdin, &Message{Type: MsgShutdown})
			p.stdin.Close()
		}
	}
	f.waitAll(2 * time.Second)
	return rep, nil
}

// spawn starts a worker process in the slot and sends its hello; the
// ready frame is read with the first result. Fault rules ship only with
// first-generation workers.
func (p *proc) spawn(armFaults bool) error {
	cmd := exec.Command(p.cfg.Command[0], p.cfg.Command[1:]...)
	cmd.Env = append(os.Environ(), p.cfg.Env...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("dist: worker %d stdin: %w", p.slot, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("dist: worker %d stdout: %w", p.slot, err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("dist: spawn worker %d: %w", p.slot, err)
	}
	p.cmd, p.stdin, p.stdout = cmd, stdin, stdout

	hello := p.hello
	if armFaults && p.cfg.FaultRules != "" {
		hello.FaultSeed = p.cfg.FaultSeed
		hello.FaultRules = p.cfg.FaultRules
	}
	if err := WriteFrame(stdin, &Message{Type: MsgHello, Hello: &hello}); err != nil {
		return fmt.Errorf("dist: hello to worker %d: %w", p.slot, err)
	}
	return nil
}

// Slice has the slot's process explore one batch (explore.Slicer): it
// writes the batch frame and waits for the result, the lease timer or
// ctx. A result is returned only whole and decoded. An error frame — the
// worker refusing the work — fails the run. On every other way out the
// slice is lost and the process SIGKILLed before anything else is asked
// of it, for it may have cached states of a slice nobody will merge
// (DESIGN.md §15): a stop (ctx) leaves the slot empty; a death, an
// overdue lease or a frame out of protocol respawns it, up to
// maxRespawns times.
func (p *proc) Slice(ctx context.Context, batch *explore.Snapshot, budget int64) (*explore.Snapshot, explore.StopCause, error) {
	data, err := batch.Encode()
	if err != nil {
		return nil, 0, fmt.Errorf("dist: encode batch: %w", err)
	}
	id := p.batches.Add(1)
	p.met.emitBatch(p.slot, id, len(batch.Units), budget)
	defer p.met.leases.Add(-1)

	child := p.cmd.Process // the callbacks may outlive it in the slot
	var overdue atomic.Bool
	lease := time.AfterFunc(p.cfg.LeaseTimeout, func() {
		overdue.Store(true)
		child.Kill()
	})
	unhook := context.AfterFunc(ctx, func() { child.Kill() })
	m, err := p.exchange(&Message{Type: MsgBatch, Batch: id, Snapshot: data, MaxStates: budget})
	lease.Stop()
	unhook()

	var reason string
	switch {
	case ctx.Err() != nil:
		// The search is stopping and nothing more will be asked of this
		// slot; whatever the slice got to is dropped with the process.
		p.kill()
		return nil, 0, explore.ErrSliceLost
	case overdue.Load():
		reason = fmt.Sprintf("lease %d expired", id)
	case err == io.EOF:
		reason = "exited"
	case err != nil:
		reason = err.Error()
	case m.Type == MsgError:
		// A clean error frame is the worker refusing the work, not dying
		// from it: handshake and batch failures (bad program, engine
		// construction, snapshot decode) are deterministic, so handing
		// the batch out again would only repeat them through the respawn
		// budget. Fail the run with the worker's message, as the
		// in-process search would, and Run ends every process. Crashes
		// never send this frame.
		return nil, 0, fmt.Errorf("dist: worker %d: %s", p.slot, m.Err)
	case m.Type != MsgResult || m.Batch != id:
		reason = fmt.Sprintf("unexpected %q frame", m.Type)
	default:
		result, err := explore.DecodeSnapshot(m.Snapshot)
		if err == nil {
			p.met.emitResult(p.slot, id)
			return result, explore.StopCause(m.Cause), nil
		}
		reason = fmt.Sprintf("bad result: %v", err)
	}
	return nil, 0, p.death(reason, len(batch.Units))
}

// exchange writes one frame to the process and reads its answer, past
// the ready frame a fresh process sends first.
func (p *proc) exchange(m *Message) (*Message, error) {
	if err := WriteFrame(p.stdin, m); err != nil {
		return nil, fmt.Errorf("write: %w", err)
	}
	for {
		m, err := ReadFrame(p.stdout)
		if err != nil || m.Type != MsgReady {
			return m, err
		}
	}
}

// kill ends the slot's process and reaps it, leaving the slot empty.
func (p *proc) kill() {
	p.stdin.Close()
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.cmd = nil
}

// death is the recovery path for a dead or misbehaving worker: the
// process is killed, the slot respawned with a clean one, and the slice
// reported lost, so that its units go back on the frontier.
func (p *proc) death(reason string, units int) error {
	if err := p.plan.Fire(faultinject.PointDistDeath); err != nil {
		return fmt.Errorf("dist: injected death-handler fault: %w", err)
	}
	p.cfg.Logf("dist: worker %d died (%s)", p.slot, reason)
	p.kill()
	p.met.emitDeath(p.slot, units, reason)
	if p.respawns++; p.respawns > maxRespawns {
		return fmt.Errorf("dist: worker %d exceeded %d respawns (last death: %s)", p.slot, maxRespawns, reason)
	}
	p.met.emitRespawn(p.slot)
	if err := p.spawn(false); err != nil {
		return err
	}
	return explore.ErrSliceLost
}

// waitAll reaps every worker process, escalating to SIGKILL after the
// grace period: the escalation kills every process without asking which
// have exited (killing a reaped process is a harmless error).
func (f *fleet) waitAll(grace time.Duration) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, p := range f.procs {
			if p.cmd != nil {
				p.cmd.Wait()
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(grace):
		for _, p := range f.procs {
			if p.cmd != nil {
				p.cmd.Process.Kill()
			}
		}
		<-done
	}
	for _, p := range f.procs {
		p.cmd = nil
	}
}

// killAll hard-kills every worker still in its slot (final cleanup).
func (f *fleet) killAll() {
	for _, p := range f.procs {
		if p != nil && p.cmd != nil {
			p.kill()
		}
	}
}
