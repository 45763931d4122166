// Package jobs is the exploration job server behind cmd/verisoftd: a
// bounded priority queue with admission control and load shedding, a
// worker pool running searches through the explore package, per-job
// retry with exponential backoff that resumes from the job's last
// persisted checkpoint, and a crash-safe journal (write-temp-then-
// rename under a data directory) so a daemon killed at any instant
// reboots into a consistent job table and finishes its in-flight work.
package jobs

import (
	"bytes"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"

	"reclose/internal/cfg"
	"reclose/internal/explore"
	"reclose/internal/mgenv"
)

// State is a job's position in its lifecycle state machine:
//
//	queued ──► running ──► done
//	  ▲           │  ├───► failed      (permanent error or retries exhausted)
//	  │           │  └───► cancelled
//	  │           ▼
//	  └─── wait-retry                  (transient failure; backoff, then requeue)
//
// A daemon crash can leave a job persisted as queued, running, or
// wait-retry; boot recovery requeues all three (running jobs resume
// from their last persisted checkpoint).
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateWaitRetry State = "wait-retry"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Request limits enforced by ParseRequest regardless of transport.
const (
	// MaxSourceBytes bounds the MiniC source of one job.
	MaxSourceBytes = 1 << 20
	// MaxPriority is the highest admission priority (0 is the lowest).
	MaxPriority = 9
	// maxRequestWorkers bounds the per-job explore worker count.
	maxRequestWorkers = 64
	// maxRequestDistWorkers bounds the per-job distributed worker
	// process count — OS processes, so the cap is far tighter than the
	// in-process worker cap.
	maxRequestDistWorkers = 16
	// maxNaiveDomain bounds the -naive closing domain.
	maxNaiveDomain = 64
	// maxRequestIncidents bounds the per-job incident sample budget.
	maxRequestIncidents = 256
)

// Request is the job-submission document (POST /jobs). All fields but
// Source are optional.
type Request struct {
	// Source is the MiniC program to explore: an open program (closed
	// per Close), or an already-closed one — e.g. the output of
	// `reclose -emit`, which is how closed CFGs travel as jobs.
	Source string `json:"source"`
	// Close selects how an open program is closed: "auto" (the paper's
	// transformation, default), "naive" (explicit most general
	// environment over [0,NaiveDomain)), or "none" (reject open
	// programs).
	Close       string `json:"close,omitempty"`
	NaiveDomain int    `json:"naive_domain,omitempty"`
	// Priority is the admission priority, 0 (lowest) to 9: when the
	// queue is full, a new job may evict the oldest queued job of any
	// strictly lower priority.
	Priority int `json:"priority,omitempty"`

	// Engine selects the interpreter ("bytecode", the compiled machine
	// and the default, or "ref", the reference oracle).
	Engine string `json:"engine,omitempty"`
	// MaxDepth bounds path depth (0 = explore default).
	MaxDepth int `json:"max_depth,omitempty"`
	// MaxStates bounds the whole job (0 = unlimited): reaching it ends
	// the job as done-but-truncated, like the CLI flag.
	MaxStates int64 `json:"max_states,omitempty"`
	// AttemptStates is the per-attempt state budget (0 = server
	// default): an attempt that exhausts it checkpoints and the job is
	// requeued with backoff, so one giant job cannot pin a worker.
	AttemptStates int64 `json:"attempt_states,omitempty"`
	// AttemptTimeoutMS is the per-attempt wall-clock budget in
	// milliseconds (0 = server default).
	AttemptTimeoutMS int64 `json:"attempt_timeout_ms,omitempty"`
	// Workers is the explore worker count for this job (0 =
	// sequential).
	Workers int `json:"workers,omitempty"`
	// DistWorkers distributes attempts across this many worker OS
	// processes (0 = in-process). Requires a server configured with a
	// distributed runner (Config.DistRun); the merged result obeys the
	// same determinism contract as in-process attempts.
	DistWorkers int `json:"dist_workers,omitempty"`
	// NoPOR / NoSleep disable the partial-order reductions.
	NoPOR   bool `json:"no_por,omitempty"`
	NoSleep bool `json:"no_sleep,omitempty"`
	// POR selects the reduction: "static" (persistent sets, default),
	// "dynamic" (Flanagan-Godefroid backtrack sets), or "off". The
	// legacy NoPOR spelling maps to "off"; combining it with a
	// contradicting POR is rejected.
	POR string `json:"por,omitempty"`
	// Liveness turns on non-progress cycle detection (livelock search).
	// Liveness runs under the strict static reduction, so combining it
	// with por="dynamic" is rejected at admission rather than silently
	// downgraded.
	Liveness bool `json:"liveness,omitempty"`
	// MaxIncidents bounds recorded incident samples (0 = default 16).
	MaxIncidents int `json:"max_incidents,omitempty"`
	// Trace streams the job's obs events to a JSONL file under the
	// data directory, served at GET /jobs/<id>/trace.
	Trace bool `json:"trace,omitempty"`
}

// ParseRequest decodes and validates a job-submission document. It
// never panics on hostile input (FuzzJobRequest) and enforces the
// bounds above so a single request cannot exhaust the server. An unknown
// key is refused: a misspelt "livenes" would run a plain search.
func ParseRequest(data []byte) (*Request, error) {
	if len(data) > MaxSourceBytes+4096 {
		return nil, fmt.Errorf("jobs: request body is %d bytes (limit %d)", len(data), MaxSourceBytes+4096)
	}
	var r Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("jobs: malformed request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("jobs: malformed request: data after the document")
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// options is the search the request asks for: its two mode names
// parsed, no_por as the legacy spelling of por "off", and the rest
// decided by explore's Resolve, whose refusal it returns.
func (r *Request) options() (explore.Options, error) {
	opt := explore.Options{MaxDepth: r.MaxDepth, MaxStates: r.MaxStates, NoSleep: r.NoSleep,
		Liveness: r.Liveness, MaxIncidents: r.MaxIncidents, Workers: r.Workers}
	for _, m := range []struct {
		v    encoding.TextUnmarshaler
		name string
	}{{&opt.Engine, r.Engine}, {&opt.POR, r.POR}} {
		if err := m.v.UnmarshalText([]byte(m.name)); err != nil {
			return opt, fmt.Errorf("jobs: %w", err)
		}
	}
	if r.NoPOR {
		if r.POR != "" && opt.POR != explore.POROff {
			return opt, fmt.Errorf("jobs: no_por contradicts por=%q", r.POR)
		}
		opt.POR = explore.POROff
	}
	if _, err := opt.Resolve(); err != nil {
		return opt, fmt.Errorf("jobs: %w", err)
	}
	return opt, nil
}

func (r *Request) validate() error {
	if r.Source == "" {
		return fmt.Errorf("jobs: request has no source")
	}
	if len(r.Source) > MaxSourceBytes {
		return fmt.Errorf("jobs: source is %d bytes (limit %d)", len(r.Source), MaxSourceBytes)
	}
	if !utf8.ValidString(r.Source) {
		return fmt.Errorf("jobs: source is not valid UTF-8")
	}
	switch r.Close {
	case "", "auto", "none":
	case "naive":
		if r.NaiveDomain < 1 || r.NaiveDomain > maxNaiveDomain {
			return fmt.Errorf("jobs: naive close needs naive_domain in [1,%d], got %d", maxNaiveDomain, r.NaiveDomain)
		}
	default:
		return fmt.Errorf("jobs: unknown close mode %q", r.Close)
	}
	if r.Priority < 0 || r.Priority > MaxPriority {
		return fmt.Errorf("jobs: priority %d outside [0,%d]", r.Priority, MaxPriority)
	}
	if r.AttemptStates < 0 || r.AttemptTimeoutMS < 0 {
		return fmt.Errorf("jobs: negative budget")
	}
	if r.Workers < 0 || r.Workers > maxRequestWorkers {
		return fmt.Errorf("jobs: workers %d outside [0,%d]", r.Workers, maxRequestWorkers)
	}
	if r.DistWorkers < 0 || r.DistWorkers > maxRequestDistWorkers {
		return fmt.Errorf("jobs: dist_workers %d outside [0,%d]", r.DistWorkers, maxRequestDistWorkers)
	}
	if r.MaxIncidents < 0 || r.MaxIncidents > maxRequestIncidents {
		return fmt.Errorf("jobs: max_incidents %d outside [0,%d]", r.MaxIncidents, maxRequestIncidents)
	}
	_, err := r.options()
	return err
}

// compile builds the closed unit a request describes. Compile and
// closing errors are permanent: the job fails without retry.
func (r *Request) compile() (*cfg.Unit, error) {
	unit, _, err := mgenv.Prepare(r.Source, r.Close, r.NaiveDomain)
	if errors.Is(err, mgenv.ErrOpen) {
		err = fmt.Errorf("jobs: %w", err)
	}
	return unit, err
}

// IncidentSummary is one recorded incident in a job result.
type IncidentSummary struct {
	Kind  string `json:"kind"`
	Msg   string `json:"msg"`
	Depth int    `json:"depth"`
}

// Result is the final outcome of a done job: the merged Report's
// counters plus its incident samples. Replays and ReplaySteps are
// deliberately absent — they measure how the work was scheduled
// (restarts re-replay prefixes), not what was explored, and the
// crash-recovery contract promises equality of everything here with
// an uninterrupted run.
type Result struct {
	States      int64 `json:"states"`
	Transitions int64 `json:"transitions"`
	Paths       int64 `json:"paths"`
	MaxDepth    int   `json:"max_depth"`

	Terminated  int64 `json:"terminated"`
	Deadlocks   int64 `json:"deadlocks"`
	Violations  int64 `json:"violations"`
	Traps       int64 `json:"traps"`
	Divergences int64 `json:"divergences"`
	// Livelocks counts non-progress cycles; zero (and absent from the
	// JSON) unless the request set "liveness".
	Livelocks int64 `json:"livelocks,omitempty"`
	// RedCut counts the liveness red searches that ran out of budget
	// before finding a cycle or exhausting their region: nonzero means
	// "no livelock" holds only up to that bound.
	RedCut         int64 `json:"liveness_red_searches_cut,omitempty"`
	DepthHits      int64 `json:"depth_hits"`
	SleepPrunes    int64 `json:"sleep_prunes"`
	CachePrunes    int64 `json:"cache_prunes"`
	InternalErrors int64 `json:"internal_errors"`
	Incidents      int64 `json:"incidents"`

	OpsCovered int `json:"ops_covered"`
	OpsTotal   int `json:"ops_total"`

	// Complete is false when the job ended on its own MaxStates budget
	// (Cause says why), mirroring the CLI's truncated searches.
	Complete bool   `json:"complete"`
	Cause    string `json:"cause,omitempty"`

	Samples []IncidentSummary `json:"samples,omitempty"`
}

// resultFromReport projects a merged report into the persisted form.
func resultFromReport(rep *explore.Report) *Result {
	res := &Result{
		States:         rep.States,
		Transitions:    rep.Transitions,
		Paths:          rep.Paths,
		MaxDepth:       rep.MaxDepth,
		Terminated:     rep.Terminated,
		Deadlocks:      rep.Deadlocks,
		Violations:     rep.Violations,
		Traps:          rep.Traps,
		Divergences:    rep.Divergences,
		Livelocks:      rep.Livelocks,
		RedCut:         rep.RedCut,
		DepthHits:      rep.DepthHits,
		SleepPrunes:    rep.SleepPrunes,
		CachePrunes:    rep.CachePrunes,
		InternalErrors: rep.InternalErrors,
		Incidents:      rep.Incidents(),
		OpsCovered:     rep.OpsCovered,
		OpsTotal:       rep.OpsTotal,
		Complete:       !rep.Incomplete,
		Cause:          "",
	}
	if rep.Incomplete {
		res.Cause = rep.Cause.String()
	}
	for _, in := range rep.Samples {
		res.Samples = append(res.Samples, IncidentSummary{
			Kind:  in.Kind.String(),
			Msg:   in.Msg,
			Depth: in.Depth,
		})
	}
	return res
}

// Job is the in-memory job table entry: its journal record, which the
// journal writes as it stands, plus what lives only in this process.
// Fields are guarded by the manager's table lock; the worker running the
// job mutates it only through manager methods.
type Job struct {
	record

	// unit is the compiled closed system, built on first attempt and
	// kept in memory only (the journal re-compiles from source).
	unit *cfg.Unit
	// cancel stops the running attempt (set while State == running).
	cancel func()
	// cancelled marks a cancel request that arrived while the job was
	// running (or mid-pop); the attempt's outcome routing honours it.
	cancelled bool
	// recovered marks a job requeued by boot recovery.
	recovered bool
}

// View is the externally visible job state (GET /jobs/<id>).
type View struct {
	ID               string  `json:"id"`
	State            State   `json:"state"`
	Priority         int     `json:"priority"`
	Attempts         int     `json:"attempts"`
	Retries          int     `json:"retries"`
	Resumes          int     `json:"resumes"`
	CheckpointStates int64   `json:"checkpoint_states,omitempty"`
	Result           *Result `json:"result,omitempty"`
	Error            string  `json:"error,omitempty"`
}

// view snapshots a job under the manager lock.
func (j *Job) view() *View {
	return &View{
		ID:               j.ID,
		State:            j.State,
		Priority:         j.Req.Priority,
		Attempts:         j.Attempts,
		Retries:          j.Retries,
		Resumes:          j.Resumes,
		CheckpointStates: j.CheckpointStates,
		Result:           j.Result,
		Error:            j.Error,
	}
}
