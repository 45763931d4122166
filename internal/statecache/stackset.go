package statecache

import "bytes"

// StackSet tracks the keys of the states on the current DFS path — what
// the machine hands over as a state's key, segment ids or fingerprint
// text, as the Cache stores it — indexed by scheduling depth, and answers
// on-stack revisit queries exactly (hash prefilter, byte-compare
// confirm). It is the
// cycle-detection counterpart of Cache: the cache remembers states
// visited anywhere in the search, the stack set remembers only the
// states on the path currently being extended, which is what a
// non-progress cycle must close back into.
//
// The explorer's stateless search re-executes a path's unchanged
// prefix on every replay, so entries below the replay point stay valid
// across backtracks; Push truncates any deeper stale entries before
// recording, keeping the set consistent without a pop-per-backtrack
// protocol. A StackSet belongs to one engine and is not safe for
// concurrent use.
type StackSet struct {
	entries []stackEntry
	// index maps a state hash to the deepest entry holding it;
	// shallower ones follow through next. Entries are pushed and
	// truncated at the deep end only, so that entry is always the one
	// to unlink.
	index map[uint64]int32
}

type stackEntry struct {
	hash uint64
	next int32  // next shallower depth with this hash, or -1
	key  []byte // private copy; buffer reused across overwrites
}

// NewStackSet returns an empty stack set.
func NewStackSet() *StackSet {
	return &StackSet{index: make(map[uint64]int32)}
}

// Len returns the number of states currently on the stack.
func (s *StackSet) Len() int { return len(s.entries) }

// Truncate discards every entry at depth >= n.
func (s *StackSet) Truncate(n int) {
	for i := len(s.entries) - 1; i >= n; i-- {
		if e := &s.entries[i]; e.next < 0 {
			delete(s.index, e.hash)
		} else {
			s.index[e.hash] = e.next
		}
	}
	if n < len(s.entries) {
		s.entries = s.entries[:n]
	}
}

// Push records the state with the given hash and key at the given
// depth, truncating any deeper entries first.
// The key bytes are copied. Depths must be pushed contiguously:
// depth <= Len() is required.
func (s *StackSet) Push(depth int, hash uint64, key []byte) {
	s.Truncate(depth)
	if depth != len(s.entries) {
		panic("statecache: StackSet.Push depth gap")
	}
	var buf []byte
	if depth < cap(s.entries) {
		// Reuse the truncated entry's buffer to keep steady-state
		// pushes allocation-free.
		buf = s.entries[:depth+1][depth].key[:0]
	}
	next, ok := s.index[hash]
	if !ok {
		next = -1
	}
	s.entries = append(s.entries, stackEntry{hash: hash, next: next, key: append(buf, key...)})
	s.index[hash] = int32(depth)
}

// Lookup reports the depth of the shallowest on-stack state with the
// given key, or ok == false if the state is not on the stack.
func (s *StackSet) Lookup(hash uint64, key []byte) (depth int, ok bool) {
	d, found := s.index[hash]
	for found && d >= 0 {
		e := &s.entries[d]
		if bytes.Equal(e.key, key) {
			depth, ok = int(d), true
		}
		d = e.next
	}
	return depth, ok
}

// Key returns the stored key at the given depth. The returned
// slice aliases internal storage and is invalidated by Push/Truncate.
func (s *StackSet) Key(depth int) []byte { return s.entries[depth].key }
