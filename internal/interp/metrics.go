package interp

import "reclose/internal/obs"

// Metrics counts interpreter-level work. The zero value is the disabled
// form: every field is a nil instrument and every obs method is a no-op
// on a nil receiver, so systems carry a Metrics value unconditionally
// and the hot paths pay only a nil check when observability is off.
type Metrics struct {
	// Forks counts System.Fork calls (snapshot-spill state copies).
	Forks *obs.Counter
	// Frames counts slot-frame allocations: process root frames on
	// Reset plus one frame per user procedure call.
	Frames *obs.Counter
	// Instrs counts bytecode instructions dispatched (batched per basic
	// block, flushed at step boundaries).
	Instrs *obs.Counter
	// HashIncr counts StateHash calls answered from the incremental
	// rolling hash; HashFull counts full recomputation walks.
	HashIncr *obs.Counter
	HashFull *obs.Counter
	// Keys counts fingerprints assembled from key segments, Segs the
	// process segments re-rendered for them (hash.go).
	Keys *obs.Counter
	Segs *obs.Counter
}

// SetMetrics attaches instrument counters to the system. Forked systems
// inherit the metrics of the system they were forked from.
func (s *System) SetMetrics(m Metrics) { s.met = m }
