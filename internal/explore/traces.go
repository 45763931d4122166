package explore

import (
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
	for _, evs := range lists {
		set[strings.Join(append(evs[:len(evs):len(evs)], ""), " ")] = true
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

// TraceLists is TraceSet returning each distinct trace as its event
// list, for wildcard comparisons. A trace is a function of its path's
// decisions: OnLeaf's are replayed on one machine, which steps only
// where consecutive paths part (replayer).
func TraceLists(u *cfg.Unit, opt Options, sysProcs int) ([][]string, *Report, error) {
	sys, err := interp.NewSystem(u)
	if err != nil {
		return nil, nil, err
	}
	r := &replayer{sys: sys}
	seen := make(map[string]bool)
	var out [][]string
	opt.OnLeaf = func(kind LeafKind, decisions []Decision) {
		switch kind {
		case LeafTerminated, LeafDeadlock, LeafViolation, LeafTrap:
			var evs []string
			for _, ev := range r.replay(decisions) {
				if sysProcs == 0 || ev.Proc < sysProcs {
					evs = append(evs, ev.String())
				}
			}
			if key := strings.Join(evs, " "); !seen[key] {
				seen[key] = true
				out = append(out, evs)
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
// closed trace under EventMatches, returning a witness open trace
// otherwise. This is the inclusion Theorem 6 guarantees.
func WildcardSubset(open, closed [][]string) (string, bool) {
	exact := make(map[string]bool, len(closed))
	for _, c := range closed {
		exact[strings.Join(c, " ")] = true
	}
	for _, o := range open {
		key := strings.Join(o, " ")
		if exact[key] {
			continue
		}
		found := false
		for _, c := range closed {
			if traceMatches(o, c) {
				found = true
				break
			}
		}
		if !found {
			return key, false
		}
	}
	return "", true
}
