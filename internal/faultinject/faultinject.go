// Package faultinject is the deterministic fault-injection substrate of
// the job server: a seedable plan of rules that fire at named hook
// points threaded through the code under test, in the style of the obs
// package — a nil *Plan is the disabled form, and every method on a nil
// receiver is a no-op, so production code calls hook points
// unconditionally at the cost of a nil check.
//
// A rule selects a hook point and an action: panic (simulated crash of
// the goroutine that hit the point), error (an injected transient
// failure returned to the caller), sleep (a slow or stuck path), or
// skew (advance the plan's virtual clock). Firing is deterministic
// given the plan's rules and the sequence of hits at each point:
// counting rules (After/Every/Count) depend only on the per-point hit
// counter, and probabilistic rules draw from a splitmix64 stream
// seeded at construction. Tests that need exact schedules use counting
// rules; chaos-style tests use Prob and vary the seed.
package faultinject

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Point names a hook point. The constants below are the points wired
// through the repo; tests may invent their own.
type Point string

// Hook points threaded through the exploration engine and the job
// server.
const (
	// PointExplorePath fires before every explored path
	// (explore.Options.Fault): sleep rules simulate slow or stuck
	// searches, panic/error rules surface as isolated internal-error
	// incidents.
	PointExplorePath Point = "explore.path"
	// PointWorkerAttempt fires as a job attempt starts on a pool
	// worker: panic rules simulate worker crashes, error rules
	// transient per-attempt failures.
	PointWorkerAttempt Point = "jobs.worker.attempt"
	// PointCheckpointSave fires before a job checkpoint snapshot is
	// persisted: error rules simulate checkpoint-write failures, panic
	// rules a crash mid-checkpoint.
	PointCheckpointSave Point = "jobs.checkpoint.save"
	// PointJournalWrite fires before any journal record write: error
	// rules simulate a full or failing disk.
	PointJournalWrite Point = "jobs.journal.write"
	// PointDistWorkerBatch fires in a distributed worker process as it
	// starts a batch, outside the per-path recovery: panic rules kill
	// the whole worker process mid-batch, which is exactly the death
	// the search must survive by putting the batch's units back.
	PointDistWorkerBatch Point = "dist.worker.batch"
	// PointDistWorkerResult fires in a distributed worker just before
	// it sends a finished slice result: a panic here loses a computed
	// result after the work was done — the nastier half of the
	// exactly-once contract.
	PointDistWorkerResult Point = "dist.worker.result"
	// PointDistDeath fires in the process running the search as it
	// handles a worker death, before the slot is respawned: sleep rules
	// widen that window, error rules simulate respawn failure.
	PointDistDeath Point = "dist.coordinator.death"
)

// Action is what a rule does when it fires.
type Action string

// Actions.
const (
	ActPanic Action = "panic" // panic with an *Injected value
	ActError Action = "error" // return an *Injected error
	ActSleep Action = "sleep" // sleep SleepMS milliseconds
	ActSkew  Action = "skew"  // advance the plan clock by SkewMS
)

// Rule arms one action at one hook point. Hits at the point are
// numbered from 1; a hit is eligible when it is past After, on the
// rule's Every cycle, and the rule has fired fewer than Count times.
// An eligible hit fires unconditionally when Prob is 0, else with
// probability Prob drawn from the plan's seeded stream.
type Rule struct {
	Point   Point   `json:"point"`
	Action  Action  `json:"action"`
	After   int     `json:"after,omitempty"`    // skip the first After hits
	Every   int     `json:"every,omitempty"`    // fire on every Nth eligible hit (default 1)
	Count   int     `json:"count,omitempty"`    // maximum fires (0 = unlimited)
	Prob    float64 `json:"prob,omitempty"`     // per-eligible-hit probability (0 = always)
	SleepMS int64   `json:"sleep_ms,omitempty"` // ActSleep duration
	SkewMS  int64   `json:"skew_ms,omitempty"`  // ActSkew clock advance
	Msg     string  `json:"msg,omitempty"`      // carried in the Injected value
}

func (r *Rule) validate() error {
	switch r.Action {
	case ActPanic, ActError:
	case ActSleep:
		if r.SleepMS <= 0 {
			return fmt.Errorf("faultinject: sleep rule at %q needs sleep_ms > 0", r.Point)
		}
	case ActSkew:
		if r.SkewMS == 0 {
			return fmt.Errorf("faultinject: skew rule at %q needs skew_ms != 0", r.Point)
		}
	default:
		return fmt.Errorf("faultinject: unknown action %q", r.Action)
	}
	if r.Point == "" {
		return fmt.Errorf("faultinject: rule with empty point")
	}
	if r.After < 0 || r.Every < 0 || r.Count < 0 {
		return fmt.Errorf("faultinject: rule at %q has negative after/every/count", r.Point)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("faultinject: rule at %q has prob %v outside [0,1]", r.Point, r.Prob)
	}
	return nil
}

// Injected is the panic value and error type of every injected fault,
// so recovery layers can tell an injected fault from a real one.
type Injected struct {
	Point Point  // the hook point that fired
	Hit   int    // the 1-based hit number at that point
	Msg   string // the rule's message, if any
}

func (e *Injected) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("faultinject: injected fault at %s (hit %d): %s", e.Point, e.Hit, e.Msg)
	}
	return fmt.Sprintf("faultinject: injected fault at %s (hit %d)", e.Point, e.Hit)
}

// IsInjected reports whether an error or recovered panic value is an
// injected fault.
func IsInjected(v any) bool {
	_, ok := v.(*Injected)
	return ok
}

// ruleState is a rule plus its fire counter.
type ruleState struct {
	Rule
	fires int
}

// Plan is an armed set of rules. The zero of the type is a nil *Plan:
// all methods are no-ops, Fire returns nil, Now returns time.Now().
type Plan struct {
	mu      sync.Mutex
	rng     uint64
	byPoint map[Point][]*ruleState
	hits    map[Point]int
	fired   map[Point]int
	skew    time.Duration
	// sleep is the sleeper, swappable by tests that assert sleep rules
	// without paying wall time.
	sleep func(time.Duration)
}

// New arms a plan with the given rules. Invalid rules are rejected.
func New(seed int64, rules ...Rule) (*Plan, error) {
	p := &Plan{
		rng:     uint64(seed)*2654435761 + 0x9e3779b97f4a7c15,
		byPoint: make(map[Point][]*ruleState),
		hits:    make(map[Point]int),
		fired:   make(map[Point]int),
		sleep:   time.Sleep,
	}
	for i := range rules {
		r := rules[i]
		if r.Every == 0 {
			r.Every = 1
		}
		if err := r.validate(); err != nil {
			return nil, err
		}
		p.byPoint[r.Point] = append(p.byPoint[r.Point], &ruleState{Rule: r})
	}
	return p, nil
}

// MustNew is New for literal rule sets in tests; it panics on invalid
// rules.
func MustNew(seed int64, rules ...Rule) *Plan {
	p, err := New(seed, rules...)
	if err != nil {
		panic(err)
	}
	return p
}

// Decode parses a JSON array of rules (the -fault-rules file format of
// verisoftd) into an armed plan.
func Decode(seed int64, data []byte) (*Plan, error) {
	var rules []Rule
	if err := json.Unmarshal(data, &rules); err != nil {
		return nil, fmt.Errorf("faultinject: malformed rules: %w", err)
	}
	return New(seed, rules...)
}

// splitmix64 advances the plan's deterministic random stream.
func (p *Plan) splitmix64() uint64 {
	p.rng += 0x9e3779b97f4a7c15
	z := p.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Fire records a hit at a hook point and applies the first rule that
// fires there: ActError returns an *Injected error, ActPanic panics
// with one, ActSleep blocks for the rule's duration and returns nil,
// ActSkew advances the plan clock and returns nil. No rule firing —
// or a nil receiver — returns nil.
func (p *Plan) Fire(pt Point) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.hits[pt]++
	hit := p.hits[pt]
	var fired *ruleState
	for _, rs := range p.byPoint[pt] {
		if hit <= rs.After {
			continue
		}
		if (hit-rs.After-1)%rs.Every != 0 {
			continue
		}
		if rs.Count > 0 && rs.fires >= rs.Count {
			continue
		}
		if rs.Prob > 0 {
			u := float64(p.splitmix64()>>11) / float64(1<<53)
			if u >= rs.Prob {
				continue
			}
		}
		rs.fires++
		p.fired[pt]++
		fired = rs
		break
	}
	var sleep time.Duration
	if fired != nil && fired.Action == ActSkew {
		p.skew += time.Duration(fired.SkewMS) * time.Millisecond
	}
	if fired != nil && fired.Action == ActSleep {
		sleep = time.Duration(fired.SleepMS) * time.Millisecond
	}
	sleeper := p.sleep
	p.mu.Unlock()

	if fired == nil {
		return nil
	}
	switch fired.Action {
	case ActPanic:
		panic(&Injected{Point: pt, Hit: hit, Msg: fired.Msg})
	case ActError:
		return &Injected{Point: pt, Hit: hit, Msg: fired.Msg}
	case ActSleep:
		sleeper(sleep)
	}
	return nil
}

// Now is the plan's view of the wall clock: time.Now plus the skew
// accumulated by ActSkew rules. A nil plan reads the real clock.
func (p *Plan) Now() time.Time {
	if p == nil {
		return time.Now()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Now().Add(p.skew)
}

// Hits returns how many times the point has been hit (0 on nil).
func (p *Plan) Hits(pt Point) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits[pt]
}

// Fires returns how many faults have fired at the point (0 on nil).
func (p *Plan) Fires(pt Point) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[pt]
}

// SetSleeper replaces the sleep implementation (tests). No-op on nil.
func (p *Plan) SetSleeper(f func(time.Duration)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.sleep = f
	p.mu.Unlock()
}

// String summarizes hits and fires per point, sorted, for logs.
func (p *Plan) String() string {
	if p == nil {
		return "faultinject: disabled"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rules := 0
	for _, rs := range p.byPoint {
		rules += len(rs)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faultinject: %d rule(s)", rules)
	pts := make([]string, 0, len(p.hits))
	for pt := range p.hits {
		pts = append(pts, string(pt))
	}
	sort.Strings(pts)
	for _, pt := range pts {
		fmt.Fprintf(&b, " %s=%d/%d", pt, p.fired[Point(pt)], p.hits[Point(pt)])
	}
	return b.String()
}
