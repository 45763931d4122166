package explore

import (
	"context"
	"fmt"
	"sort"

	"reclose/internal/cfg"
	"reclose/internal/interp"
)

// Decision is one recorded choice of a search path: either a scheduling
// decision (which process's transition fired) or a VS_toss outcome.
type Decision struct {
	Toss  bool `json:"toss,omitempty"`
	Value int  `json:"value"`
}

// String renders the decision.
func (d Decision) String() string {
	if d.Toss {
		return fmt.Sprintf("toss=%d", d.Value)
	}
	return fmt.Sprintf("run P%d", d.Value)
}

// ReplayStep is one step of a replayed scenario, as delivered to the
// observer: the decision taken and, for scheduling decisions, the
// visible event it produced.
type ReplayStep struct {
	Decision Decision
	Event    interp.Event
	HasEvent bool
}

// Replay deterministically re-executes a recorded decision sequence
// (from Incident.Decisions) on a fresh instance of the unit, invoking
// observe after every step. It returns the outcome that ended the
// scenario (nil if the decisions run out without an incident — e.g. a
// deadlock, which is a property of the final state rather than an
// execution outcome; inspect the returned system for that).
//
// This is the debugging/replay facility of VeriSoft: an erroneous
// scenario found by the search can be re-executed step by step.
func Replay(u *cfg.Unit, decisions []Decision, observe func(ReplayStep)) (*interp.System, *interp.Outcome, error) {
	sys, err := interp.NewSystem(u)
	if err != nil {
		return nil, nil, err
	}
	out, err := replayOn(sys, decisions, -1, observe, nil)
	return sys, out, err
}

// replayOn steps decisions[pos:] on sys, which is in the state
// decisions[:pos] lead to — in its initial state, for Init to leave,
// when pos is -1. Toss decisions are read through the chooser; before,
// if non-nil, is called ahead of each scheduling step with its index.
func replayOn(sys *interp.System, decisions []Decision, pos int, observe func(ReplayStep), before func(at int)) (*interp.Outcome, error) {
	chooser := interp.ChooserFunc(func(bound int) (int, bool) {
		if pos >= len(decisions) || !decisions[pos].Toss {
			return 0, false
		}
		v := decisions[pos].Value
		if observe != nil {
			observe(ReplayStep{Decision: decisions[pos]})
		}
		pos++
		return v, true
	})

	if pos < 0 {
		pos = 0
		if out := sys.Init(chooser); out != nil {
			return out, nil
		}
	}
	for pos < len(decisions) {
		d := decisions[pos]
		if d.Toss {
			return nil, fmt.Errorf("explore: unconsumed toss decision at position %d", pos)
		}
		if d.Value < 0 || d.Value >= len(sys.Procs) {
			return nil, fmt.Errorf("explore: scheduling decision names process %d of %d", d.Value, len(sys.Procs))
		}
		if !sys.Enabled(d.Value) {
			return nil, fmt.Errorf("explore: replayed process P%d is not enabled (stale decisions?)", d.Value)
		}
		if before != nil {
			before(pos)
		}
		pos++
		ev, out := sys.Step(d.Value, chooser)
		if observe != nil {
			observe(ReplayStep{Decision: d, Event: ev, HasEvent: true})
		}
		if out != nil {
			return out, nil
		}
	}
	return nil, nil
}

// replayer rebuilds traces from decision lists on one machine. It marks
// the machine ahead of each scheduling step, so the next list undoes it
// to the deepest mark within the prefix the two lists share and steps
// only the rest. A dead mark (the machine dropped a log that outgrew its
// bound) or a replay that failed starts over from Reset and Init.
type replayer struct {
	sys   *interp.System
	decs  []Decision // the list last replayed
	trace []interp.Event
	marks []interp.Mark // ahead of each step replayed, so ahead of trace[i]
	ats   []int         // the index in decs of marks[i]'s step
}

// replay returns the trace decisions replay to, up to a failing step; the
// slice is reused by the next call.
func (r *replayer) replay(decisions []Decision) (trace []interp.Event) {
	common := 0
	for common < min(len(r.decs), len(decisions)) && r.decs[common] == decisions[common] {
		common++
	}
	pos := -1
	if n := sort.SearchInts(r.ats, common+1) - 1; n >= 0 {
		if _, ok := r.sys.Undo(r.marks[n]); ok {
			pos, r.trace, r.marks, r.ats = r.ats[n], r.trace[:n], r.marks[:n], r.ats[:n]
		}
	}
	if pos < 0 {
		r.sys.Reset()
		r.trace, r.marks, r.ats = r.trace[:0], r.marks[:0], r.ats[:0]
	}
	r.decs = append(r.decs[:0], decisions...)
	var err error
	defer func() {
		if recover() != nil || err != nil {
			r.marks, r.ats, trace = r.marks[:0], r.ats[:0], r.trace
		}
	}()
	_, err = replayOn(r.sys, decisions, pos, func(st ReplayStep) {
		if st.HasEvent {
			r.trace = append(r.trace, frozen(st.Event))
		}
	}, func(at int) {
		r.marks, r.ats = append(r.marks, r.sys.Mark()), append(r.ats, at)
	})
	return r.trace
}

// frozen returns ev with its value deep-copied. Event values can alias
// live cell storage (an array element received into a frame, say), and
// a later in-place store through that cell would retroactively rewrite
// a recorded event; freezing keeps recorded traces immutable.
func frozen(ev interp.Event) interp.Event {
	ev.Value = ev.Value.Copy()
	return ev
}

// rebuildTraces gives each of a finished search's samples its trace, a
// function of its decisions: it replays them, once per sample, on one
// machine of res Reset between samples (a search whose exploring was done
// elsewhere resolves the unit here; samples share too little to pay for a
// replayer's marks). A replay that fails keeps the events before the
// failing step, which is what the path showed when it failed.
func rebuildTraces(u *cfg.Unit, res *interp.Resolution, samples []*Incident) {
	var err error
	if len(samples) > 0 && res == nil {
		res, err = interp.Resolve(u)
	}
	if len(samples) == 0 || err != nil {
		return
	}
	sys := res.NewSystem()
	for _, in := range samples {
		sys.Reset()
		in.Trace = nil
		func() {
			defer func() { _ = recover() }()
			replayOn(sys, in.Decisions, -1, func(st ReplayStep) {
				if st.HasEvent {
					in.Trace = append(in.Trace, frozen(st.Event))
				}
			}, nil)
		}()
	}
}

// ShortestWitness finds a minimal-depth incident (deadlock, violation,
// trap, or divergence) by iterative deepening: it runs complete searches
// at increasing depth bounds until one finds an incident, which is then
// guaranteed to be as shallow as possible. VeriSoft's stateless DFS
// yields *some* witness; iterative deepening trades re-exploration for
// the shortest one — the classic IDDFS trade, cheap here because
// shallow state spaces are small.
//
// It returns nil (with the final report) if no incident exists within
// opt.MaxDepth (default 64 for this function). ctx bounds every round
// together (its deadline is the whole search's wall-clock budget), and
// opt.MaxStates bounds each round. A round cut before it found an
// incident ends the search: its report comes back Incomplete with a nil
// incident, since "no incident shallower" is not proved past a cut.
//
// Minimality holds only for the strict static DFS. Iterative deepening
// proves "no incident at depth < d" by running a complete search at
// each smaller bound, and that premise needs the bounded search to be
// exhaustive: dynamic POR computes its backtrack sets assuming the
// search runs to completion, so a depth cutoff can hide a shallower
// incident from a reduced run (the ignoring problem). Under POR ==
// PORDynamic the function therefore degrades to the weaker some-witness contract — one
// stop-on-first search at the full bound — instead of pretending to a
// minimality it cannot deliver (TestShortestWitnessSomeWitnessModes).
func ShortestWitness(ctx context.Context, u *cfg.Unit, opt Options) (*Incident, *Report, error) {
	limit := opt.MaxDepth
	if limit <= 0 {
		limit = 64
	}
	opt.Stop = StopIncident
	first := 1
	if opt.POR == PORDynamic {
		first = limit
	}
	var rep *Report
	for d := first; d <= limit; d++ {
		opt.MaxDepth = d
		var err error
		if rep, err = ExploreContext(ctx, u, opt); err != nil {
			return nil, nil, err
		}
		if len(rep.Samples) > 0 {
			return rep.Samples[0], rep, nil
		}
		if rep.Incomplete || rep.DepthHits == 0 {
			// Cut, or the whole state space fits within d: either way
			// there is nothing deeper to search.
			return nil, rep, nil
		}
	}
	return nil, rep, nil
}
