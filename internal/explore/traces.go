package explore

import (
	"slices"
	"strings"

	"reclose/internal/cfg"
	"reclose/internal/interp"
)

// TraceSet explores the unit and returns the set of distinct visible
// traces, canonicalized as strings (each event followed by a space). If
// sysProcs > 0, events of processes with index >= sysProcs (environment
// components) are projected away, so traces of a naive composition can
// be compared with traces of a closed transformation. Stub markers are
// ignored in the canonical form for the same reason.
//
// Only complete paths contribute (terminated, deadlocked, violated, or
// trapped); depth-bounded prefixes are excluded, so pick MaxDepth large
// enough for the system under comparison.
func TraceSet(u *cfg.Unit, opt Options, sysProcs int) (map[string]bool, *Report, error) {
	lists, rep, err := TraceLists(u, opt, sysProcs)
	if err != nil {
		return nil, nil, err
	}
	set := make(map[string]bool, len(lists))
	for _, t := range lists {
		set[strings.Join(append(t.Events[:len(t.Events):len(t.Events)], ""), " ")] = true
	}
	return set, rep, nil
}

// Subset reports whether every trace in a is in b, returning a witness
// trace otherwise.
func Subset(a, b map[string]bool) (string, bool) {
	for t := range a {
		if !b[t] {
			return t, false
		}
	}
	return "", true
}

// Trace is a complete path's visible events and how the path ended.
type Trace struct {
	Kind   LeafKind
	Events []string
}

// String renders the trace as its kind and its events.
func (t Trace) String() string { return t.Kind.String() + ": " + strings.Join(t.Events, " ") }

// TraceLists is TraceSet returning each distinct (trace, leaf kind) pair,
// for wildcard comparisons. A trace is a function of its path's
// decisions: OnLeaf's are replayed on one machine, which steps only
// where consecutive paths part (replayer).
func TraceLists(u *cfg.Unit, opt Options, sysProcs int) ([]Trace, *Report, error) {
	sys, err := interp.NewSystem(u)
	if err != nil {
		return nil, nil, err
	}
	r := &replayer{sys: sys}
	type key struct {
		kind   LeafKind
		events string
	}
	seen := make(map[key]bool)
	var out []Trace
	opt.OnLeaf = func(kind LeafKind, decisions []Decision) {
		switch kind {
		case LeafTerminated, LeafDeadlock, LeafViolation, LeafTrap:
			var evs []string
			for _, ev := range r.replay(decisions) {
				if sysProcs == 0 || ev.Proc < sysProcs {
					evs = append(evs, ev.String())
				}
			}
			if k := (key{kind, strings.Join(evs, " ")}); !seen[k] {
				seen[k] = true
				out = append(out, Trace{kind, evs})
			}
		}
	}
	rep, err := Explore(u, opt)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// EventMatches reports whether a concrete open-system event is matched
// by a closed-system event: they are equal, or the closed event carries
// the undefined value where the open one carries concrete data
// (Theorem 6 preserves only environment-independent values).
func EventMatches(open, closed string) bool {
	if open == closed {
		return true
	}
	i := strings.LastIndex(closed, "=")
	return i >= 0 && closed[i+1:] == "undef" && strings.HasPrefix(open, closed[:i+1])
}

// traceMatches reports whether every event of open is matched by the
// corresponding event of closed.
func traceMatches(open, closed []string) bool {
	if len(open) != len(closed) {
		return false
	}
	for i := range open {
		if !EventMatches(open[i], closed[i]) {
			return false
		}
	}
	return true
}

// WildcardSubset reports whether every open trace is matched by some
// closed trace under EventMatches, whatever either path's leaf, returning
// a witness open trace otherwise. This is the inclusion Theorem 6
// guarantees.
func WildcardSubset(open, closed []Trace) (string, bool) {
	exact := make(map[string]bool, len(closed))
	for _, c := range closed {
		exact[strings.Join(c.Events, " ")] = true
	}
	for _, o := range open {
		key := strings.Join(o.Events, " ")
		if !exact[key] && !slices.ContainsFunc(closed, func(c Trace) bool { return traceMatches(o.Events, c.Events) }) {
			return key, false
		}
	}
	return "", true
}

// IncidentsMatched reports whether every open deadlock or assertion
// violation trace is matched under EventMatches by a closed trace of the
// same kind, returning a witness open trace otherwise: Theorem 7 trace
// by trace, where a count would let a closer keep one deadlock and lose
// another.
func IncidentsMatched(open, closed []Trace) (string, bool) {
	for _, o := range open {
		if o.Kind != LeafDeadlock && o.Kind != LeafViolation {
			continue
		}
		if !slices.ContainsFunc(closed, func(c Trace) bool { return c.Kind == o.Kind && traceMatches(o.Events, c.Events) }) {
			return o.String(), false
		}
	}
	return "", true
}
