package interp

// Tally counts interpreter-level work in plain fields. A machine counts
// into one Tally, its own unless SetTally points it at another, and a
// fork counts into the block ForkMachine is given. The counting is a
// plain add: a tally belongs to one goroutine, and whoever owns it
// publishes it (the explorer does so in batches, metrics.go there).
type Tally struct {
	// Forks counts System.Fork calls (snapshot-spill state copies).
	Forks int64
	// Frames counts slot-frame allocations: process root frames on
	// Reset plus one frame per user procedure call.
	Frames int64
	// Instrs counts bytecode instructions dispatched (batched per basic
	// block, added at the end of a transition's invisible suffix).
	Instrs int64
	// HashIncr counts StateHash calls answered from the incremental
	// rolling hash; HashFull counts full recomputation walks.
	HashIncr int64
	HashFull int64
	// Keys counts fingerprints assembled from key segments, Segs the
	// process segments re-rendered for them (hash.go).
	Keys int64
	Segs int64
}

// SetTally points the system's counting at t.
func (s *System) SetTally(t *Tally) { s.tal = t }
