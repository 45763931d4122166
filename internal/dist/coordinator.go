package dist

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"reclose/internal/explore"
	"reclose/internal/faultinject"
)

// Config tunes the coordinator. Zero values select the defaults noted
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
	// BatchUnits caps the units leased per batch; 0 means 16.
	BatchUnits int
	// LeaseTimeout is how long a batch may stay leased before the
	// worker is declared dead and its units are reassigned; 0 means
	// 60s. It must comfortably exceed a slice's worst wall time.
	LeaseTimeout time.Duration
	// MaxRespawns caps worker respawns (per slot) before the run
	// aborts; 0 means 8.
	MaxRespawns int
	// Resume seeds the run from a checkpoint snapshot (the merged
	// counters become the starting totals, the snapshot's units the
	// starting frontier), exactly like the in-process Resume. Nil
	// starts from the root.
	Resume *explore.Snapshot
	// Interest is the object-name list behind a priority search's Score
	// function, shipped by name because a compiled closure cannot cross
	// the wire (see WireOptions.Interest).
	Interest []string
	// FaultSeed/FaultRules arm a fault plan inside first-generation
	// workers (dist.worker.* points). Respawned workers run clean: the
	// armed fault simulates a crash, and re-arming it would make
	// crash-recovery tests non-terminating.
	FaultSeed  int64
	FaultRules string
	// Logf receives coordinator diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.SliceStates <= 0 {
		c.SliceStates = 4096
	}
	if c.BatchUnits <= 0 {
		c.BatchUnits = 16
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 60 * time.Second
	}
	if c.MaxRespawns <= 0 {
		c.MaxRespawns = 8
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// lease is one outstanding batch: which worker holds it, the units it
// covers (returned to the frontier if the worker dies), the state
// budget reserved against the global MaxStates, and the deadline.
type lease struct {
	id       uint64
	slot     int
	units    []explore.WireUnit
	budget   int64
	start    time.Time
	deadline time.Time
}

// procState is the coordinator's view of one worker slot.
type procState struct {
	slot  int
	gen   int // spawn generation; events from older generations are stale
	cmd   *exec.Cmd
	stdin io.WriteCloser
	alive bool
	idle  bool
}

// event is one frame (or read failure) from a worker, tagged with the
// slot and spawn generation that produced it.
type event struct {
	slot int
	gen  int
	msg  *Message
	err  error
}

// coordinator is the single-goroutine event loop owning the frontier,
// leases, and merge. Single ownership is the exactly-once argument:
// lease revocation and result merging are serialized, so a result for
// a revoked lease is dropped and a revoked lease's units are
// reassigned exactly once.
type coordinator struct {
	cfg   Config
	prog  Program
	opt   explore.Options
	met   *distMetrics
	plan  *faultinject.Plan
	merge *explore.Merger

	procs    []*procState
	respawns []int
	stats    []explore.WorkerStat
	events   chan event

	frontier  []explore.WireUnit
	leases    map[uint64]*lease
	nextBatch uint64

	// stopCause, once set, stops assignment; killNow additionally
	// abandons outstanding leases (their units go to pending).
	stopCause explore.StopCause
	lastCkpt  int64
	start     time.Time
}

// Run explores prog under opt across cfg.Workers worker processes and
// returns the merged report. The report satisfies the same contracts
// as the in-process engine: strict modes are byte-identical to a
// sequential run (modulo Replays/ReplaySteps, as with checkpoint
// resume), dynamic-POR and priority search keep the incident-set
// contract, and an Incomplete report's snapshot is an exact cut.
func Run(ctx context.Context, prog Program, opt explore.Options, cfg Config) (*explore.Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("dist: Workers must be >= 1")
	}
	if len(cfg.Command) == 0 {
		return nil, fmt.Errorf("dist: Command is required")
	}
	unit, err := prog.Compile()
	if err != nil {
		return nil, err
	}
	c := &coordinator{
		cfg:      cfg,
		prog:     prog,
		opt:      opt,
		met:      newDistMetrics(opt.Obs),
		plan:     opt.Fault,
		merge:    explore.NewMerger(unit, opt),
		procs:    make([]*procState, cfg.Workers),
		respawns: make([]int, cfg.Workers),
		stats:    make([]explore.WorkerStat, cfg.Workers),
		events:   make(chan event, 4*cfg.Workers),
		leases:   make(map[uint64]*lease),
		start:    time.Now(),
	}
	if err := c.seed(); err != nil {
		return nil, err
	}
	defer c.killAll()

	c.met.emitStart(cfg.Workers, opt.StateCache)
	for slot := 0; slot < cfg.Workers; slot++ {
		if err := c.spawn(slot, true); err != nil {
			return nil, err
		}
	}
	if err := c.loop(ctx); err != nil {
		return nil, err
	}
	return c.finish()
}

// seed initializes the merge and frontier: from the resume snapshot
// when one was given, else from the root unit.
func (c *coordinator) seed() error {
	if c.cfg.Resume == nil {
		c.frontier = []explore.WireUnit{c.merge.Root()}
		return nil
	}
	if err := c.merge.Add(c.cfg.Resume); err != nil {
		return fmt.Errorf("dist: resume snapshot: %w", err)
	}
	c.frontier = append([]explore.WireUnit(nil), c.cfg.Resume.Units...)
	return nil
}

// spawn starts (or restarts) the worker at slot and sends its hello.
// Fault rules ship only with first-generation workers.
func (c *coordinator) spawn(slot int, armFaults bool) error {
	cmd := exec.Command(c.cfg.Command[0], c.cfg.Command[1:]...)
	cmd.Env = append(os.Environ(), c.cfg.Env...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("dist: worker %d stdin: %w", slot, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("dist: worker %d stdout: %w", slot, err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("dist: spawn worker %d: %w", slot, err)
	}
	gen := 0
	if old := c.procs[slot]; old != nil {
		gen = old.gen + 1
	}
	p := &procState{slot: slot, gen: gen, cmd: cmd, stdin: stdin, alive: true}
	c.procs[slot] = p
	go func(slot, gen int, r io.Reader) {
		for {
			m, err := ReadFrame(r)
			c.events <- event{slot: slot, gen: gen, msg: m, err: err}
			if err != nil {
				return
			}
		}
	}(slot, gen, stdout)

	hello := &Hello{
		Version: ProtocolVersion,
		Program: c.prog,
		Options: EncodeOptions(c.opt, c.cfg.Interest),
	}
	if armFaults && c.cfg.FaultRules != "" {
		hello.FaultSeed = c.cfg.FaultSeed
		hello.FaultRules = c.cfg.FaultRules
	}
	if err := c.send(p, &Message{Type: MsgHello, Hello: hello}); err != nil {
		return fmt.Errorf("dist: hello to worker %d: %w", slot, err)
	}
	return nil
}

// send writes one frame to a worker's stdin.
func (c *coordinator) send(p *procState, m *Message) error {
	return WriteFrame(p.stdin, m)
}

// loop is the event loop: assign, wait, handle, repeat, until the
// search completes or a stop cause both sets and drains.
func (c *coordinator) loop(ctx context.Context) error {
	tick := time.NewTicker(c.cfg.LeaseTimeout / 4)
	defer tick.Stop()
	var timeoutCh <-chan time.Time
	if c.opt.Timeout > 0 {
		t := time.NewTimer(c.opt.Timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	for {
		if err := c.assign(); err != nil {
			return err
		}
		if c.done() {
			return nil
		}
		select {
		case ev := <-c.events:
			if err := c.handle(ev); err != nil {
				return err
			}
		case <-tick.C:
			if err := c.expireLeases(); err != nil {
				return err
			}
		case <-timeoutCh:
			c.abandon(explore.StopTimeout)
		case <-ctx.Done():
			c.abandon(explore.StopCancelled)
		}
	}
}

// done reports whether the loop may finish: everything explored, or a
// stop cause is set and no lease remains to drain (abandon clears
// leases immediately; MaxStates drains them naturally).
func (c *coordinator) done() bool {
	if c.stopCause != explore.StopNone {
		return len(c.leases) == 0
	}
	return len(c.frontier) == 0 && len(c.leases) == 0
}

// assign hands frontier units to idle workers while budget remains.
func (c *coordinator) assign() error {
	if c.stopCause != explore.StopNone {
		return nil
	}
	for len(c.frontier) > 0 {
		p := c.idleWorker()
		if p == nil {
			return nil
		}
		budget := c.cfg.SliceStates
		if c.opt.MaxStates > 0 {
			remaining := c.opt.MaxStates - c.merge.States() - c.reserved()
			if remaining <= 0 {
				if len(c.leases) == 0 {
					// Budget exhausted with work left: the canonical
					// MaxStates truncation.
					c.stopCause = explore.StopMaxStates
				}
				return nil
			}
			if budget > remaining {
				budget = remaining
			}
		}
		n := c.cfg.BatchUnits
		if n > len(c.frontier) {
			n = len(c.frontier)
		}
		units := append([]explore.WireUnit(nil), c.frontier[len(c.frontier)-n:]...)
		c.frontier = c.frontier[:len(c.frontier)-n]

		c.nextBatch++
		id := c.nextBatch
		snap := c.merge.NewBatch(units)
		data, err := snap.Encode()
		if err != nil {
			return fmt.Errorf("dist: encode batch %d: %w", id, err)
		}
		now := time.Now()
		l := &lease{id: id, slot: p.slot, units: units, budget: budget,
			start: now, deadline: now.Add(c.cfg.LeaseTimeout)}
		msg := &Message{Type: MsgBatch, Batch: id, Snapshot: data, MaxStates: budget}
		if err := c.send(p, msg); err != nil {
			c.cfg.Logf("dist: batch write to worker %d: %v", p.slot, err)
			c.frontier = append(c.frontier, units...)
			if err := c.workerDeath(p.slot, "write-failed"); err != nil {
				return err
			}
			continue
		}
		c.leases[id] = l
		p.idle = false
		c.stats[p.slot].Units += int64(len(units))
		c.met.emitBatch(p.slot, id, len(units), budget)
	}
	return nil
}

// idleWorker returns an alive idle worker, or nil.
func (c *coordinator) idleWorker() *procState {
	for _, p := range c.procs {
		if p != nil && p.alive && p.idle {
			return p
		}
	}
	return nil
}

// reserved sums the state budgets of outstanding leases; together with
// the merged total it bounds what the whole system may have explored,
// so the global MaxStates is never overshot.
func (c *coordinator) reserved() int64 {
	var sum int64
	for _, l := range c.leases {
		sum += l.budget
	}
	return sum
}

// handle dispatches one worker event.
func (c *coordinator) handle(ev event) error {
	p := c.procs[ev.slot]
	if p == nil || ev.gen != p.gen {
		return nil // stale generation: a killed worker's last gasp
	}
	if ev.err != nil {
		if !p.alive {
			return nil
		}
		reason := "exited"
		if ev.err != io.EOF {
			reason = fmt.Sprintf("read: %v", ev.err)
		}
		return c.workerDeath(ev.slot, reason)
	}
	switch ev.msg.Type {
	case MsgReady:
		p.idle = true
	case MsgResult:
		return c.handleResult(ev.slot, ev.msg)
	case MsgError:
		// A clean error frame is the worker refusing the work, not
		// dying from it: handshake and batch failures (bad program,
		// engine construction, snapshot decode) are deterministic, so
		// reassigning the batch would only repeat them through the
		// respawn budget. Fail the run with the worker's message, as
		// the in-process engine would. Crashes never send this frame —
		// they surface as reader errors and take the lease-recovery
		// path.
		return fmt.Errorf("dist: worker %d: %s", ev.slot, ev.msg.Err)
	default:
		c.cfg.Logf("dist: worker %d sent unexpected %q", ev.slot, ev.msg.Type)
		return c.workerDeath(ev.slot, "protocol")
	}
	return nil
}

// handleResult merges one slice. The lease table is the exactly-once
// gate: a result whose lease was revoked (worker declared dead, units
// reassigned) is dropped — merging it too would double-count.
func (c *coordinator) handleResult(slot int, m *Message) error {
	l, ok := c.leases[m.Batch]
	if !ok || l.slot != slot {
		c.cfg.Logf("dist: dropping result for revoked batch %d from worker %d", m.Batch, slot)
		return nil
	}
	snap, err := explore.DecodeSnapshot(m.Snapshot)
	if err != nil {
		return c.workerDeath(slot, fmt.Sprintf("bad result: %v", err))
	}
	s0, p0 := c.merge.States(), c.merge.Paths()
	if err := c.merge.Add(snap); err != nil {
		return c.workerDeath(slot, fmt.Sprintf("unmergeable result: %v", err))
	}
	delete(c.leases, m.Batch)
	st := &c.stats[slot]
	st.States += c.merge.States() - s0
	st.Paths += c.merge.Paths() - p0
	st.Busy += time.Since(l.start)
	c.frontier = append(c.frontier, snap.Units...)
	p := c.procs[slot]
	p.idle = true
	c.met.emitResult(slot, m.Batch)

	switch cause := explore.StopCause(m.Cause); cause {
	case explore.StopViolation, explore.StopIncident:
		// StopOnViolation propagates: the incident is merged; abandon
		// the rest exactly as the in-process engine aborts its workers.
		c.abandon(cause)
		return nil
	}
	c.maybeCheckpoint()
	return nil
}

// maybeCheckpoint emits a coordinator checkpoint at the configured
// path cadence: merged progress plus the frontier AND every leased
// batch's units — an exact cut (leased partial progress is simply
// re-explored on resume).
func (c *coordinator) maybeCheckpoint() {
	if c.opt.Checkpoint == nil || c.opt.CheckpointEveryPaths <= 0 {
		return
	}
	if c.merge.Paths()-c.lastCkpt < c.opt.CheckpointEveryPaths {
		return
	}
	c.lastCkpt = c.merge.Paths()
	c.opt.Checkpoint(c.merge.Checkpoint(c.pendingUnits()))
}

// pendingUnits is the exact unexplored remainder right now: the
// frontier plus all leased units.
func (c *coordinator) pendingUnits() []explore.WireUnit {
	out := append([]explore.WireUnit(nil), c.frontier...)
	for _, l := range c.leases {
		out = append(out, l.units...)
	}
	return out
}

// abandon stops the run now: outstanding leases are revoked into the
// frontier (their results, if any arrive, will be dropped), and the
// cause is recorded for the final report. A set stopCause ends
// assignment, so a worker whose result is dropped here never runs
// another batch on the cache that result filled.
func (c *coordinator) abandon(cause explore.StopCause) {
	if c.stopCause == explore.StopNone {
		c.stopCause = cause
	}
	for id, l := range c.leases {
		c.frontier = append(c.frontier, l.units...)
		delete(c.leases, id)
		c.met.leases.Add(-1)
	}
}

// workerDeath is the recovery path for a dead or misbehaving worker:
// the process is killed, its leases return to the frontier and the slot
// respawns. Killing it is what keeps a cached run sound: the process's
// state cache holds states of the slice whose result is being dropped,
// and must not outlive it (DESIGN.md §15).
func (c *coordinator) workerDeath(slot int, reason string) error {
	p := c.procs[slot]
	if p == nil || !p.alive {
		return nil
	}
	if err := c.plan.Fire(faultinject.PointDistDeath); err != nil {
		return fmt.Errorf("dist: injected death-handler fault: %w", err)
	}
	c.cfg.Logf("dist: worker %d died (%s)", slot, reason)
	p.alive = false
	p.idle = false
	p.stdin.Close()
	p.cmd.Process.Kill()
	go p.cmd.Wait()

	reassigned := 0
	for id, l := range c.leases {
		if l.slot != slot {
			continue
		}
		c.frontier = append(c.frontier, l.units...)
		reassigned += len(l.units)
		delete(c.leases, id)
		c.met.leases.Add(-1)
	}
	c.met.emitDeath(slot, reassigned, reason)

	c.respawns[slot]++
	if c.respawns[slot] > c.cfg.MaxRespawns {
		return fmt.Errorf("dist: worker %d exceeded %d respawns (last death: %s)",
			slot, c.cfg.MaxRespawns, reason)
	}
	c.met.emitRespawn(slot)
	return c.spawn(slot, false)
}

// expireLeases declares workers with overdue leases dead.
func (c *coordinator) expireLeases() error {
	now := time.Now()
	for _, l := range c.leases {
		if now.After(l.deadline) {
			return c.workerDeath(l.slot, fmt.Sprintf("lease %d expired", l.id))
		}
	}
	return nil
}

// finish shuts workers down and assembles the final report.
func (c *coordinator) finish() (*explore.Report, error) {
	for _, p := range c.procs {
		if p != nil && p.alive {
			c.send(p, &Message{Type: MsgShutdown})
			p.stdin.Close()
		}
	}
	c.waitAll(2 * time.Second)

	wall := time.Since(c.start)
	stats := make([]explore.WorkerStat, len(c.stats))
	copy(stats, c.stats)
	if wall > 0 {
		for i := range stats {
			stats[i].Utilization = float64(stats[i].Busy) / float64(wall)
		}
	}
	pending := c.pendingUnits()
	if c.stopCause == explore.StopNone && len(pending) > 0 {
		// Defensive: an empty cause with leftover work should be
		// impossible (done() requires both empty), but never report a
		// silently-truncated search as complete.
		c.stopCause = explore.StopCancelled
	}
	rep, err := c.merge.Report(pending, c.stopCause, c.cfg.Workers, stats)
	if err != nil {
		return nil, err
	}
	if c.opt.Checkpoint != nil && rep.Incomplete {
		if s := rep.WireSnapshot(); s != nil {
			c.opt.Checkpoint(s)
		}
	}
	c.met.emitStop(rep.States, rep.Paths)
	return rep, nil
}

// waitAll reaps every live worker process, escalating to SIGKILL after
// the grace period. Only this goroutine touches procState: the reaper
// works from its own list, and the escalation kills every process on
// it without asking which have exited (killing a reaped process is a
// harmless error).
func (c *coordinator) waitAll(grace time.Duration) {
	var live []*procState
	for _, p := range c.procs {
		if p != nil && p.alive {
			live = append(live, p)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, p := range live {
			p.cmd.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(grace):
		for _, p := range live {
			p.cmd.Process.Kill()
		}
		<-done
	}
	for _, p := range live {
		p.alive = false
	}
}

// killAll hard-kills every live worker (final cleanup).
func (c *coordinator) killAll() {
	for _, p := range c.procs {
		if p == nil || !p.alive {
			continue
		}
		p.alive = false
		p.idle = false
		p.stdin.Close()
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}
