package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"reclose/internal/explore"
	"reclose/internal/faultinject"
	"reclose/internal/obs"
)

// ErrDraining is returned by Submit once graceful shutdown has begun.
var ErrDraining = errors.New("jobs: server is draining")

// errKilled suppresses journal writes after Kill: the simulated-crash
// process is "dead" and must not touch the disk again.
var errKilled = errors.New("jobs: manager killed")

// Config configures a Manager.
type Config struct {
	// DataDir is the journal root; job records live under
	// <DataDir>/jobs, per-job traces under <DataDir>/traces.
	DataDir string
	// Workers is the pool size (default 2).
	Workers int
	// QueueCap bounds the admission queue (default 64).
	QueueCap int
	// MaxAttempts bounds attempts per job before it fails permanently
	// (default 5).
	MaxAttempts int
	// DefaultAttemptStates is the per-attempt state budget applied
	// when a request does not set its own (0 = unlimited).
	DefaultAttemptStates int64
	// DefaultAttemptTimeout is the per-attempt wall budget applied
	// when a request does not set its own (0 = unlimited).
	DefaultAttemptTimeout time.Duration
	// CheckpointEveryPaths is the per-attempt checkpoint cadence in
	// completed paths (default 64; deterministic cut points).
	CheckpointEveryPaths int64
	// Backoff shapes the retry delays.
	Backoff Backoff
	// Obs receives the job-level counters and gauges (metrics.go) and,
	// when it carries a sink, job lifecycle events. Nil disables.
	Obs *obs.Registry
	// Fault is the fault-injection plan threaded through the worker
	// pool, the journal, and the explore engines. Nil disables.
	Fault *faultinject.Plan
	// DistRun runs one distributed exploration attempt for a request
	// with DistWorkers > 0. The manager stays ignorant of process
	// spawning — the host (verisoftd) supplies the runner, typically
	// internal/dist with its own binary in -worker-mode. snap, when
	// non-nil, is the attempt's resume checkpoint. Nil DistRun rejects
	// dist_workers requests at attempt time as a permanent error.
	DistRun func(ctx context.Context, req *Request, opt explore.Options, snap *explore.Snapshot) (*explore.Report, error)
	// Logf logs operational events (default: discard).
	Logf func(format string, args ...any)
	// Clock supplies the current time (default time.Now). Tests inject
	// a stepped clock — the same seam the obs golden tests use — to pin
	// time-derived outputs like the Retry-After estimate.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.CheckpointEveryPaths <= 0 {
		c.CheckpointEveryPaths = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Manager owns the job table, the admission queue, the worker pool,
// and the journal. Open scans the journal and requeues every
// non-terminal job — running jobs resume from their last persisted
// checkpoint — so a crashed daemon reboots into the work it lost.
type Manager struct {
	cfg Config
	jn  *journal
	q   *queue
	met *managerMetrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	nextSeq  uint64
	draining bool
	killed   bool
	runningN int
	timers   map[string]*time.Timer
	// stateRev bumps and stateWake closes-and-reopens on every job
	// state transition; tests wait on it instead of polling the table.
	stateRev  uint64
	stateWake chan struct{}
	// drains holds the Clock timestamps of recent queue pops, newest
	// last, for the Retry-After drain-rate estimate.
	drains []time.Time

	wg sync.WaitGroup
}

// Open builds a manager over a data directory, recovers journaled
// jobs, and starts the worker pool.
func Open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	jn, err := openJournal(cfg.DataDir, cfg.Fault)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "traces"), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: traces dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		jn:         jn,
		q:          newQueue(cfg.QueueCap),
		met:        newManagerMetrics(cfg.Obs),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		timers:     make(map[string]*time.Timer),
		stateWake:  make(chan struct{}),
	}
	m.met.queueCap.Set(int64(cfg.QueueCap))
	m.met.workers.Set(int64(cfg.Workers))
	if err := m.recover(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// recover scans the journal: terminal jobs repopulate the table,
// non-terminal ones are requeued (with their checkpoint, if one was
// persisted), corrupt records are quarantined and counted.
func (m *Manager) recover() error {
	recs, corrupt, err := m.jn.load()
	if err != nil {
		return err
	}
	if n := len(corrupt); n > 0 {
		m.met.journalCorrupt.Add(int64(n))
		m.cfg.Logf("jobs: quarantined %d corrupt journal record(s): %v", n, corrupt)
	}
	for _, rec := range recs {
		j := &Job{record: *rec}
		m.jobs[j.ID] = j
		if j.Seq >= m.nextSeq {
			m.nextSeq = j.Seq + 1
		}
		if j.State.terminal() {
			continue
		}
		// queued, running, or wait-retry at crash time: all requeue.
		// A running job's last persisted checkpoint makes the resume;
		// its uncheckpointed tail is re-explored, never lost.
		j.State = StateQueued
		j.recovered = true
		m.met.recovered.Inc()
		if err := m.save(j); err != nil {
			m.noteJournalError(j, err)
		}
		if _, err := m.q.push(j); err != nil {
			// Capacity below the journal's backlog: fail the overflow
			// rather than refusing to boot.
			j.State = StateFailed
			j.Error = "recovery overflow: queue capacity exceeded at boot"
			m.met.failed.Inc()
			if err := m.save(j); err != nil {
				m.noteJournalError(j, err)
			}
			continue
		}
		m.met.emit("job_recovered", j.ID, obs.F("checkpoint_states", j.CheckpointStates))
	}
	m.met.noteQueueDepth(m.q.depth())
	return nil
}

// save persists a job's record unless the manager has been killed
// (crash simulation). Callers hold m.mu. Every job mutation routes
// through here, so saving doubles as the state-change broadcast.
func (m *Manager) save(j *Job) error {
	m.wakeStateWaiters()
	if m.killed {
		return errKilled
	}
	return m.jn.save(&j.record)
}

// wakeStateWaiters wakes every AwaitState waiter (m.mu held); they
// re-check their predicate and sleep again if it still does not hold.
func (m *Manager) wakeStateWaiters() {
	m.stateRev++
	close(m.stateWake)
	m.stateWake = make(chan struct{})
}

// AwaitState blocks until the job reaches one of the wanted states or
// any terminal state, returning its view at that moment and whether a
// wanted state was reached. The wait is event-driven — state
// transitions wake it — with timeout as a watchdog only, so callers
// (the package's own tests foremost) never poll the wall clock.
func (m *Manager) AwaitState(id string, timeout time.Duration, want ...State) (*View, bool) {
	watchdog := time.NewTimer(timeout)
	defer watchdog.Stop()
	for {
		m.mu.Lock()
		j, ok := m.jobs[id]
		if !ok {
			m.mu.Unlock()
			return nil, false
		}
		v := j.view()
		wake := m.stateWake
		m.mu.Unlock()
		for _, w := range want {
			if v.State == w {
				return v, true
			}
		}
		if v.State.terminal() {
			return v, false
		}
		select {
		case <-wake:
		case <-watchdog.C:
			return v, false
		}
	}
}

// noteJournalError accounts a failed journal write; the in-memory
// state stays authoritative and the daemon keeps running.
func (m *Manager) noteJournalError(j *Job, err error) {
	if errors.Is(err, errKilled) {
		return
	}
	m.met.journalErrors.Inc()
	m.cfg.Logf("jobs: journal write for %s failed: %v", j.ID, err)
}

// Submit admits a job. The record is journaled before the job becomes
// poppable, so an accepted job survives a crash that follows
// immediately. Returns ErrSaturated (HTTP 429) when the queue is full
// and nothing outranked, ErrDraining during shutdown.
func (m *Manager) Submit(req *Request) (*View, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	j := &Job{record: record{ID: fmt.Sprintf("j%06d", m.nextSeq), Req: *req, State: StateQueued, Seq: m.nextSeq}}
	m.nextSeq++
	m.jobs[j.ID] = j
	if err := m.save(j); err != nil {
		m.noteJournalError(j, err)
	}
	m.mu.Unlock()

	evicted, err := m.q.push(j)
	if err != nil {
		m.mu.Lock()
		delete(m.jobs, j.ID)
		m.mu.Unlock()
		m.jn.delete(j.ID)
		m.met.rejected.Inc()
		return nil, err
	}
	m.met.submitted.Inc()
	if evicted != nil {
		m.mu.Lock()
		evicted.State = StateFailed
		evicted.Error = "shed: evicted by a higher-priority admission"
		if err := m.save(evicted); err != nil {
			m.noteJournalError(evicted, err)
		}
		m.mu.Unlock()
		m.met.shed.Inc()
		m.met.emit("job_shed", evicted.ID, obs.F("priority", evicted.Req.Priority))
	}
	m.met.noteQueueDepth(m.q.depth())
	m.met.emit("job_submitted", j.ID, obs.F("priority", j.Req.Priority))

	m.mu.Lock()
	v := j.view()
	m.mu.Unlock()
	return v, nil
}

// Get returns a job's visible state.
func (m *Manager) Get(id string) (*View, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	return j.view(), true
}

// List returns every job, in admission order.
func (m *Manager) List() []*View {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*View, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.view())
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k-1].ID > out[k].ID; k-- {
			out[k-1], out[k] = out[k], out[k-1]
		}
	}
	return out
}

// Cancel stops a job: a queued job is removed, a waiting retry is
// unscheduled, a running attempt is interrupted (it drains at a path
// boundary). Terminal jobs are left alone (returns false).
func (m *Manager) Cancel(id string) (bool, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || j.State.terminal() {
		m.mu.Unlock()
		return false, nil
	}
	switch j.State {
	case StateQueued:
		if !m.q.remove(j) {
			// Between pop and runJob's lock: treat as running, the
			// attempt will observe the cancel flag below.
			j.cancelled = true
			m.mu.Unlock()
			return true, nil
		}
		m.finishCancelLocked(j)
		m.mu.Unlock()
		m.met.noteQueueDepth(m.q.depth())
		return true, nil
	case StateWaitRetry:
		if t := m.timers[id]; t != nil {
			t.Stop()
			delete(m.timers, id)
		}
		m.finishCancelLocked(j)
		m.mu.Unlock()
		return true, nil
	default: // running
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
		m.mu.Unlock()
		return true, nil
	}
}

// finishCancelLocked marks a job cancelled and persists it (m.mu
// held).
func (m *Manager) finishCancelLocked(j *Job) {
	j.State = StateCancelled
	if err := m.save(j); err != nil {
		m.noteJournalError(j, err)
	}
	m.met.cancelled.Inc()
	m.met.emit("job_cancelled", j.ID)
}

// Draining reports whether graceful shutdown has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// QueueDepth returns the current admission-queue occupancy.
func (m *Manager) QueueDepth() int { return m.q.depth() }

// drainWindow bounds how many recent queue pops feed the Retry-After
// drain-rate estimate; maxRetryAfterSeconds caps the advice so a stalled
// pool never tells clients to go away for minutes.
const (
	drainWindow          = 32
	maxRetryAfterSeconds = 60
)

// noteDrain records one queue pop against the configured clock.
func (m *Manager) noteDrain() {
	now := m.cfg.Clock()
	m.mu.Lock()
	m.drains = append(m.drains, now)
	if len(m.drains) > drainWindow {
		m.drains = m.drains[len(m.drains)-drainWindow:]
	}
	m.mu.Unlock()
}

// RetryAfterSeconds estimates how long a load-shed client should wait
// before resubmitting: the current queue depth divided by the recent
// drain rate (pops per second over the recorded window), floored at 1
// and capped at maxRetryAfterSeconds. With no drain history yet — a
// queue that filled before a single pop — it answers the floor.
func (m *Manager) RetryAfterSeconds() int64 {
	m.mu.Lock()
	drains := append([]time.Time(nil), m.drains...)
	m.mu.Unlock()
	return retryAfterEstimate(m.q.depth(), drains)
}

// retryAfterEstimate is the pure computation behind RetryAfterSeconds:
// depth / (pops per second across the drain window), floor 1, cap
// maxRetryAfterSeconds.
func retryAfterEstimate(depth int, drains []time.Time) int64 {
	var rate float64
	if n := len(drains); n >= 2 {
		if window := drains[n-1].Sub(drains[0]).Seconds(); window > 0 {
			rate = float64(n-1) / window
		}
	}
	if rate <= 0 || depth <= 0 {
		return 1
	}
	secs := int64(math.Ceil(float64(depth) / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

// ShedCount returns how many queued jobs eviction has shed.
func (m *Manager) ShedCount() int64 { return m.q.shedCount() }

// TracePath returns the JSONL trace file of a job (existing or not).
func (m *Manager) TracePath(id string) string {
	return filepath.Join(m.cfg.DataDir, "traces", id+".jsonl")
}

// Drain is graceful shutdown: admissions stop (Submit returns
// ErrDraining), pending retries and queued jobs stay journaled for the
// next boot, and running attempts are interrupted — each drains at a
// path boundary, persists its checkpoint, and is journaled back as
// queued. Returns when the pool is idle or ctx expires.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	for id, t := range m.timers {
		t.Stop()
		delete(m.timers, id)
	}
	for _, j := range m.jobs {
		if j.State == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	m.mu.Unlock()
	m.q.close()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain timed out: %w", ctx.Err())
	}
}

// Kill is the crash simulation used by the recovery tests: from this
// instant the manager behaves like a SIGKILLed process — journal
// writes are suppressed (the disk keeps whatever was persisted
// before), every attempt is cancelled, and Kill returns once all
// goroutines are gone so a new Manager can safely Open the same data
// directory.
func (m *Manager) Kill() {
	m.mu.Lock()
	m.killed = true
	for id, t := range m.timers {
		t.Stop()
		delete(m.timers, id)
	}
	m.mu.Unlock()
	m.baseCancel()
	m.q.close()
	m.wg.Wait()
}

// worker is one pool goroutine: pop, run, repeat until the queue
// closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j, err := m.q.pop()
		if err != nil {
			return
		}
		m.noteDrain()
		m.met.noteQueueDepth(m.q.depth())
		m.runJob(j)
	}
}

// attemptOutcome is what one attempt produced.
type attemptOutcome struct {
	rep      *explore.Report
	permErr  error // permanent: compile/close failure
	transErr error // transient: injected or environmental
	panicked bool
	panicMsg string
}

// runJob executes one attempt of a job and routes the outcome through
// the lifecycle state machine.
func (m *Manager) runJob(j *Job) {
	m.mu.Lock()
	if m.killed || j.State.terminal() || j.cancelled {
		if j.cancelled && !j.State.terminal() {
			m.finishCancelLocked(j)
		}
		m.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.Attempts++
	resumed := len(j.Checkpoint) > 0
	if resumed {
		j.Resumes++
	}
	statesBefore := j.CheckpointStates
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.cancel = cancel
	m.runningN++
	m.met.running.Set(int64(m.runningN))
	if err := m.save(j); err != nil {
		m.noteJournalError(j, err)
	}
	m.mu.Unlock()
	defer cancel()

	m.met.attempts.Inc()
	if resumed {
		m.met.resumes.Inc()
	}
	m.met.emit("attempt_start", j.ID, obs.F("attempt", j.Attempts), obs.F("resumed", resumed))

	out := m.runAttempt(ctx, j)

	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancel = nil
	m.runningN--
	m.met.running.Set(int64(m.runningN))
	if m.killed {
		return
	}
	progressed := j.CheckpointStates > statesBefore

	switch {
	case out.permErr != nil:
		m.failLocked(j, out.permErr.Error())
	case out.panicked:
		m.met.panics.Inc()
		m.transientLocked(j, "worker panic: "+out.panicMsg, progressed)
	case out.transErr != nil:
		m.transientLocked(j, out.transErr.Error(), progressed)
	case out.rep == nil:
		m.failLocked(j, "attempt produced no report")
	case !out.rep.Incomplete:
		m.doneLocked(j, out.rep)
	default:
		m.routeIncompleteLocked(j, out.rep, progressed)
	}
}

// routeIncompleteLocked classifies an incomplete report: the job's own
// budget ends it, a per-attempt budget retries it, shutdown requeues
// it (m.mu held).
func (m *Manager) routeIncompleteLocked(j *Job, rep *explore.Report, progressed bool) {
	switch rep.Cause {
	case explore.StopCancelled:
		if j.cancelled {
			m.finishCancelLocked(j)
			return
		}
		// Drain: back to queued on disk; the next boot resumes it.
		j.State = StateQueued
		if err := m.save(j); err != nil {
			m.noteJournalError(j, err)
		}
		m.met.emit("job_parked", j.ID, obs.F("checkpoint_states", j.CheckpointStates))
	case explore.StopMaxStates:
		if j.Req.MaxStates > 0 && rep.States >= j.Req.MaxStates {
			// The job's own budget: done, marked truncated — the same
			// contract as the CLI's -max-states.
			m.doneLocked(j, rep)
			return
		}
		m.transientLocked(j, "attempt state budget exhausted", progressed)
	case explore.StopTimeout:
		m.transientLocked(j, "attempt wall budget exhausted", progressed)
	default:
		// Stop-on-violation and friends are not reachable through a
		// Request; treat any other early stop as final.
		m.doneLocked(j, rep)
	}
}

// doneLocked finishes a job with its result (m.mu held).
func (m *Manager) doneLocked(j *Job, rep *explore.Report) {
	j.State = StateDone
	j.Result = resultFromReport(rep)
	j.Checkpoint = nil
	if err := m.save(j); err != nil {
		m.noteJournalError(j, err)
	}
	m.met.completed.Inc()
	m.met.emit("job_done", j.ID,
		obs.F("states", j.Result.States),
		obs.F("incidents", j.Result.Incidents),
		obs.F("attempts", j.Attempts),
		obs.F("complete", j.Result.Complete))
}

// failLocked finishes a job permanently (m.mu held).
func (m *Manager) failLocked(j *Job, msg string) {
	j.State = StateFailed
	j.Error = msg
	if err := m.save(j); err != nil {
		m.noteJournalError(j, err)
	}
	m.met.failed.Inc()
	m.met.emit("job_failed", j.ID, obs.F("error", msg))
}

// transientLocked handles a retryable failure: escalate or reset the
// backoff (reset-on-success: a failure after fresh checkpoint progress
// restarts the schedule), journal the wait, and arm the requeue timer
// (m.mu held).
func (m *Manager) transientLocked(j *Job, reason string, progressed bool) {
	if j.Attempts >= m.cfg.MaxAttempts {
		m.failLocked(j, fmt.Sprintf("retries exhausted after %d attempts: %s", j.Attempts, reason))
		return
	}
	j.Retries++
	j.BackoffLevel = nextBackoffLevel(j.BackoffLevel, progressed)
	j.State = StateWaitRetry
	if err := m.save(j); err != nil {
		m.noteJournalError(j, err)
	}
	m.met.retries.Inc()
	delay := m.cfg.Backoff.Delay(j.ID, j.BackoffLevel)
	m.met.emit("job_retry", j.ID,
		obs.F("reason", reason),
		obs.F("backoff_level", j.BackoffLevel),
		obs.F("delay_ms", delay.Milliseconds()),
		obs.F("progressed", progressed))
	if m.draining || m.killed {
		// Shutdown will journal-recover it; no timer.
		return
	}
	m.timers[j.ID] = time.AfterFunc(delay, func() { m.requeue(j) })
}

// requeue moves a waited-out retry back into the admission queue.
func (m *Manager) requeue(j *Job) {
	m.mu.Lock()
	delete(m.timers, j.ID)
	if m.draining || m.killed || j.State != StateWaitRetry {
		m.mu.Unlock()
		return
	}
	j.State = StateQueued
	if err := m.save(j); err != nil {
		m.noteJournalError(j, err)
	}
	m.mu.Unlock()
	if _, err := m.q.push(j); err != nil {
		// Saturated (retries never evict): wait another capped delay.
		m.mu.Lock()
		if !m.draining && !m.killed {
			j.State = StateWaitRetry
			m.timers[j.ID] = time.AfterFunc(m.cfg.Backoff.withDefaults().Cap, func() { m.requeue(j) })
		}
		m.mu.Unlock()
		return
	}
	m.met.noteQueueDepth(m.q.depth())
}

// runAttempt executes one attempt: compile (first time), restore the
// checkpoint if any, and run the search under the attempt's budgets,
// persisting periodic checkpoints. Panics — injected worker crashes or
// real bugs — are recovered into the outcome.
func (m *Manager) runAttempt(ctx context.Context, j *Job) (out attemptOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out.panicked = true
			out.panicMsg = fmt.Sprintf("%v", r)
		}
	}()

	if err := m.cfg.Fault.Fire(faultinject.PointWorkerAttempt); err != nil {
		out.transErr = err
		return out
	}

	if j.unit == nil {
		unit, err := j.Req.compile()
		if err != nil {
			out.permErr = err
			return out
		}
		j.unit = unit
	}

	var snap *explore.Snapshot
	m.mu.Lock()
	ckpt := j.Checkpoint
	m.mu.Unlock()
	if len(ckpt) > 0 {
		s, err := explore.DecodeSnapshot(ckpt)
		if err != nil {
			// A checkpoint that fails to decode (it was journaled
			// atomically, so this means operator tampering or version
			// skew) is dropped: the job restarts from scratch rather
			// than failing.
			m.cfg.Logf("jobs: %s: dropping undecodable checkpoint: %v", j.ID, err)
			m.mu.Lock()
			j.Checkpoint = nil
			j.CheckpointStates = 0
			m.mu.Unlock()
		} else {
			snap = s
		}
	}

	opt, closer, err := m.exploreOptions(j, snap)
	if err != nil {
		out.permErr = err
		return out
	}
	if closer != nil {
		defer closer()
	}

	var rep *explore.Report
	switch {
	case j.Req.DistWorkers > 0:
		if m.cfg.DistRun == nil {
			out.permErr = fmt.Errorf("jobs: dist_workers requested but this server has no distributed runner")
			return out
		}
		rep, err = m.cfg.DistRun(ctx, &j.Req, opt, snap)
	case snap != nil:
		rep, err = explore.ResumeContext(ctx, j.unit, snap, opt)
	default:
		rep, err = explore.ExploreContext(ctx, j.unit, opt)
	}
	if err != nil {
		// Resume rejects structurally stale snapshots; retrying with
		// the same checkpoint cannot succeed, so restart clean.
		m.cfg.Logf("jobs: %s: resume rejected (%v); restarting clean", j.ID, err)
		m.mu.Lock()
		j.Checkpoint = nil
		j.CheckpointStates = 0
		m.mu.Unlock()
		out.transErr = fmt.Errorf("jobs: attempt failed: %w", err)
		return out
	}
	if rep.Incomplete {
		if final := rep.Snapshot(); final != nil {
			m.persistCheckpoint(j, final)
		}
	}
	out.rep = rep
	return out
}

// exploreOptions builds the per-attempt search options: the request's
// (an error means a job file edited by hand), the attempt budgets (state
// budgets are absolute, so a resumed attempt's slice sits on top of the
// restored total), the fault plan, the checkpoint callback, and — when
// the request asked for a trace — a per-job registry streaming to the
// job's JSONL file.
func (m *Manager) exploreOptions(j *Job, snap *explore.Snapshot) (explore.Options, func(), error) {
	opt, err := j.Req.options()
	if err != nil {
		return opt, nil, err
	}
	opt.Fault = m.cfg.Fault

	var restored int64
	if snap != nil {
		restored = snap.Counters.States
	}
	attemptStates := j.Req.AttemptStates
	if attemptStates == 0 {
		attemptStates = m.cfg.DefaultAttemptStates
	}
	// opt.MaxStates is the job's own budget; the attempt's may be tighter.
	if attemptStates > 0 && (opt.MaxStates == 0 || restored+attemptStates < opt.MaxStates) {
		opt.MaxStates = restored + attemptStates
	}
	timeout := time.Duration(j.Req.AttemptTimeoutMS) * time.Millisecond
	if timeout == 0 {
		timeout = m.cfg.DefaultAttemptTimeout
	}
	opt.Timeout = timeout

	opt.CheckpointEveryPaths = m.cfg.CheckpointEveryPaths
	opt.Checkpoint = func(s *explore.Snapshot) { m.persistCheckpoint(j, s) }

	var closer func()
	if j.Req.Trace {
		f, err := os.OpenFile(m.TracePath(j.ID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			m.cfg.Logf("jobs: %s: trace file: %v", j.ID, err)
		} else {
			reg := obs.New()
			reg.SetSink(obs.NewSink(f))
			opt.Obs = reg
			closer = func() { f.Close() }
		}
	}
	return opt, closer, nil
}

// persistCheckpoint journals a snapshot as the job's new resume point.
// The faultinject hook fires first: an injected failure (or one from
// the disk) keeps the previous checkpoint — the job just re-explores a
// little more after a crash or retry.
func (m *Manager) persistCheckpoint(j *Job, s *explore.Snapshot) {
	if err := m.cfg.Fault.Fire(faultinject.PointCheckpointSave); err != nil {
		m.met.checkpointFailures.Inc()
		return
	}
	data, err := s.Encode()
	if err != nil {
		m.met.checkpointFailures.Inc()
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j.Checkpoint = data
	j.CheckpointStates = s.Counters.States
	if err := m.save(j); err != nil {
		m.noteJournalError(j, err)
		m.met.checkpointFailures.Inc()
		return
	}
	m.met.checkpoints.Inc()
}
