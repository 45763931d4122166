package explore

// sleepEntry records one sleeping process and the object its delayed
// transition targets (interp.Numbering index; -1 for VS_assert).
type sleepEntry struct {
	proc int
	obj  int32
}

// sleepSet is a sleep set ordered by ascending process index; nil is
// the empty set. Sets are tiny (bounded by the process count), so
// childSleep's linear merge and scheduleOptions' two-pointer scan run
// on the flat sorted form, and appendSleepKey reads its canonical order
// straight off the slice.
//
// The set a state inherits lives in storage its parent entry owns
// (entry.child): the child entry's sleep field and pendingSleep only
// read it, and it stands for as long as the parent's cursor does, which
// is as long as anything above the parent is on the stack. A set that
// leaves the engine in a work unit is a clone, and immutable.
type sleepSet []sleepEntry

// has reports whether process p is asleep.
func (s sleepSet) has(p int) bool {
	for _, se := range s {
		if se.proc >= p {
			return se.proc == p
		}
	}
	return false
}

// clone returns a copy fit for publication (nil for the empty set).
func (s sleepSet) clone() sleepSet { return append(sleepSet(nil), s...) }
