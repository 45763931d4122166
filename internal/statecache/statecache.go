// Package statecache provides the sharded concurrent visited-state set
// used by the exploration engine's StateCache option.
//
// The cache is a set of state keys (byte strings), striped across a
// power-of-two number of mutex-guarded shards routed by a 64-bit hash of
// the state. Storing the complete key — not just its hash — makes
// membership exact: a hash collision costs a bucket scan, never a false
// "already visited" answer, so pruning can never mask a state that was
// genuinely new.
//
// The key is the caller's: the compiled machine hands over one uint32
// per process and object — the id of that component's fingerprint
// segment in the search's segment table (segments.go) — the reference
// the fingerprint's text. The cache stores what it is given and charges
// what it is told (VisitCharged), the rendered fingerprint's length, so
// a MaxBytes budget evicts the same entries whatever the storage.
//
// Each entry also records the shallowest depth at which its state was
// visited. Under a depth bound, the subtree explored from a state
// shrinks as the visit gets deeper (the bound truncates more of it), so
// a revisit may only be pruned when it is at the same depth or deeper
// than a previous visit; a strictly shallower revisit re-expands the
// state and lowers the recorded depth. Visit implements exactly that
// rule.
//
// Memory can be bounded with MaxBytes. The budget is split evenly
// across shards and enforced with clock (second-chance) eviction:
// entries touched by a hit get a reference bit; the clock hand clears
// reference bits as it sweeps and evicts the first unreferenced entry.
// Eviction is sound by construction — the cache is a pruning memo, not
// ground truth — forgetting an entry merely means a future revisit
// re-explores a subtree that was already covered.
//
// Storage. A shard is a ring of pointer-free slots: the clock hand
// sweeps it, a LIFO free list hands out evicted positions. Slots with
// one hash form a chain through their next fields under a map from the
// hash to the chain's first slot. Key bytes are carved from chunks the
// shard owns (4 KiB doubling to 64 KiB) in pieces of a whole number of
// pieceGrain bytes; an evicted entry's piece goes on the free list of
// its size and the next key of that size takes it, so a bounded cache at
// its budget stores a state without allocating or abandoning a piece.
package statecache

import (
	"bytes"
	"sync"
)

// DefaultShards is the shard count used when Config.Shards is zero:
// enough stripes that a handful of workers rarely collide on a mutex,
// small enough that per-shard bookkeeping stays negligible.
const DefaultShards = 16

// maxShards caps the shard count (1<<16); beyond that the per-shard
// maps dominate memory for nothing.
const maxShards = 1 << 16

// entryOverhead approximates the per-entry bookkeeping cost charged
// against the byte budget beyond the fingerprint bytes themselves: the
// slot record, its index entry, and unused chunk space.
const entryOverhead = 96

// Key bytes are carved from blocks that double from minChunk, so a
// search of a few hundred states does not zero a megabyte, to chunkSize,
// small enough for 16-bit offsets (a longer key gets a block of its own),
// in pieces of a whole number of pieceGrain bytes.
const (
	minChunk   = 1 << 12
	chunkSize  = 1 << 16
	pieceGrain = 8
)

// Config configures a Cache.
type Config struct {
	// Shards is the number of stripes, rounded up to a power of two;
	// 0 means DefaultShards.
	Shards int
	// MaxBytes bounds what the cache's entries are charged (the length
	// Visit is told, plus entryOverhead per entry), split evenly across
	// shards; 0 means unbounded.
	MaxBytes int64
	// Hash overrides the hash Visit routes a key by; nil means FNV1a.
	// Tests inject degenerate hashes here to force collisions.
	Hash func([]byte) uint64
}

// Stats is an aggregated snapshot of the cache's counters.
type Stats struct {
	Hits         int64 // Visit returned true (revisit pruned)
	Misses       int64 // Visit returned false (state must be expanded)
	Inserts      int64 // misses that stored a new entry
	Reexpansions int64 // misses that lowered an existing entry's depth
	Evictions    int64 // entries dropped by the clock hand
	Collisions   int64 // same-hash candidates with a different fingerprint
	Entries      int64 // live entries
	Bytes        int64 // bytes charged: charged lengths plus entryOverhead each
	Stored       int64 // key bytes the live entries hold
	Carved       int64 // chunk bytes in key pieces, the free ones included
	Segments     int64 // segments in the table
	SegmentBytes int64 // their text
	Shards       int
}

// slot is one cache entry on a shard's clock ring. Its key is the first
// klen bytes of the piece at (chunk, off); charge is its cost.
type slot struct {
	hash   uint64
	klen   int32
	charge int32
	depth  int32
	next   int32 // next live slot with this hash, or -1
	chunk  int32
	off    uint16
	ref    bool // second-chance reference bit
	live   bool
}

// piece is a position in a shard's chunks.
type piece struct {
	chunk int32
	off   uint16
}

// shard is one stripe: a hash index over a slot ring with its own
// mutex, byte budget, and counters.
type shard struct {
	mu     sync.Mutex
	index  map[uint64]int32 // hash -> first live slot of its chain
	slots  []slot
	free   []int32
	chunks [][]byte
	fill   int       // bytes carved from the last chunk
	pieces [][]piece // free key pieces, by size in grains
	hand   int
	bytes  int64
	stored int64
	carved int64
	live   int64

	hits         int64
	misses       int64
	inserts      int64
	reexpansions int64
	evictions    int64
	collisions   int64

	_ [40]byte // keep adjacent shards off one cache line
}

// Cache is the concurrent visited-state set. One Cache is shared by
// every worker of a search; all methods are safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint64
	hash   func([]byte) uint64
	maxPer int64 // per-shard byte budget; 0 = unbounded
	segs   Segments
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	n := ceilPow2(cfg.Shards)
	c := &Cache{
		shards: make([]shard, n),
		mask:   uint64(n - 1),
		hash:   cfg.Hash,
	}
	if c.hash == nil {
		c.hash = FNV1a
	}
	if cfg.MaxBytes > 0 {
		c.maxPer = cfg.MaxBytes / int64(n)
		if c.maxPer < 1 {
			c.maxPer = 1
		}
	}
	for i := range c.shards {
		c.shards[i].index = make(map[uint64]int32)
	}
	return c
}

// ceilPow2 normalizes a shard count: at least 1, at most maxShards,
// rounded up to a power of two.
func ceilPow2(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Visit reports whether the state identified by key, reached at the
// given depth, may be pruned: true iff the cache holds an entry with an
// identical key whose recorded depth is at most depth. Otherwise the
// state must be expanded and Visit returns false, after either lowering
// the matching entry's depth (strictly shallower revisit) or inserting
// a new entry (subject to the byte budget; an entry that cannot be
// stored is simply not remembered). The key bytes are copied on insert,
// so callers may reuse their buffer.
func (c *Cache) Visit(key []byte, depth int) bool {
	return c.VisitCharged(c.hash(key), key, len(key), depth)
}

// VisitCharged is Visit with the routing hash and the length to charge
// against the byte budget supplied by the caller: an engine passes its
// machine's state hash and the rendered fingerprint's length. Correctness
// depends on neither (membership is decided by byte-exact key compare),
// only shard routing, bucket layout and what a budget evicts do, so a
// given key must always arrive with the same hash and charge for the
// lifetime of the cache.
func (c *Cache) VisitCharged(h uint64, key []byte, charge, depth int) bool {
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	pos, tail, skipped := s.find(h, key)
	s.collisions += skipped
	if pos >= 0 {
		sl := &s.slots[pos]
		sl.ref = true
		pruned := int32(depth) >= sl.depth
		if pruned {
			s.hits++
		} else {
			// Strictly shallower revisit: the earlier, deeper visit saw a
			// smaller depth budget, so its subtree may have been truncated.
			// Re-expand and remember the new shallowest depth.
			sl.depth = int32(depth)
			s.misses++
			s.reexpansions++
		}
		s.mu.Unlock()
		return pruned
	}

	s.misses++
	cost := int64(charge) + entryOverhead
	if c.maxPer > 0 && s.bytes+cost > c.maxPer {
		for s.bytes+cost > c.maxPer && s.evictOne() {
		}
		if s.bytes+cost > c.maxPer {
			// Even an empty shard cannot hold this entry; skip the
			// insert — the state is still expanded, only a future
			// revisit loses its prune.
			s.mu.Unlock()
			return false
		}
		if tail >= 0 {
			// A victim may have been on this key's chain.
			_, tail, _ = s.find(h, key)
		}
	}
	if n := len(s.free); n > 0 {
		pos = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{})
		pos = int32(len(s.slots) - 1)
	}
	sl := &s.slots[pos]
	p := s.takePiece(len(key))
	sl.chunk, sl.off, sl.klen, sl.charge = p.chunk, p.off, int32(len(key)), int32(charge)
	copy(s.key(sl), key)
	sl.hash, sl.depth, sl.next, sl.ref, sl.live = h, int32(depth), -1, false, true
	if tail < 0 {
		s.index[h] = pos
	} else {
		s.slots[tail].next = pos
	}
	s.bytes += cost
	s.stored += int64(len(key))
	s.live++
	s.inserts++
	s.mu.Unlock()
	return false
}

// find walks the chain of hash h for the slot holding key and returns
// its position and how many other slots it passed, or pos -1 and the
// chain's last slot (-1 if none), where a new entry links in. Called
// with the shard mutex held.
func (s *shard) find(h uint64, key []byte) (pos, tail int32, skipped int64) {
	tail = -1
	pos, ok := s.index[h]
	if !ok {
		return -1, -1, 0
	}
	for pos >= 0 {
		sl := &s.slots[pos]
		if bytes.Equal(s.key(sl), key) {
			return pos, tail, skipped
		}
		skipped++
		tail, pos = pos, sl.next
	}
	return -1, tail, skipped
}

func (s *shard) key(sl *slot) []byte {
	return s.chunks[sl.chunk][sl.off : int(sl.off)+int(sl.klen)]
}

// takePiece returns a piece for a key of n bytes: the last one freed of
// that size, or a new one.
func (s *shard) takePiece(n int) piece {
	g := (n + pieceGrain - 1) / pieceGrain
	if g < len(s.pieces) {
		if l := s.pieces[g]; len(l) > 0 {
			s.pieces[g] = l[:len(l)-1]
			return l[len(l)-1]
		}
	}
	s.carved += int64(g * pieceGrain)
	return s.carve(g * pieceGrain)
}

// freePiece puts a removed key's piece where the next key of n bytes
// finds it.
func (s *shard) freePiece(p piece, n int) {
	g := (n + pieceGrain - 1) / pieceGrain
	for len(s.pieces) <= g {
		s.pieces = append(s.pieces, nil)
	}
	s.pieces[g] = append(s.pieces[g], p)
}

// carve reserves n bytes of chunk space and returns their position.
func (s *shard) carve(n int) piece {
	last := len(s.chunks) - 1
	if last < 0 || s.fill+n > len(s.chunks[last]) {
		size := minChunk
		if last >= 0 {
			size = min(2*len(s.chunks[last]), chunkSize)
		}
		s.chunks = append(s.chunks, make([]byte, max(n, size)))
		last++
		s.fill = 0
	}
	off := uint16(s.fill)
	s.fill += n
	return piece{int32(last), off}
}

// Reset forgets every entry and keeps the storage; the event counters
// run on. The liveness red search empties its seen set this way.
func (c *Cache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.index)
		if n := len(s.chunks); n > 1 { // keep the largest block
			s.chunks[0], s.chunks = s.chunks[n-1], s.chunks[:1]
		}
		s.slots, s.free, s.pieces = s.slots[:0], s.free[:0], s.pieces[:0]
		s.fill, s.hand, s.bytes, s.stored, s.carved, s.live = 0, 0, 0, 0, 0, 0
		s.mu.Unlock()
	}
}

// evictOne advances the clock hand to the next unreferenced live slot
// and evicts it, clearing reference bits along the way. It reports
// false only when the shard holds no live entries. Called with the
// shard mutex held.
func (s *shard) evictOne() bool {
	n := len(s.slots)
	if n == 0 || s.live == 0 {
		return false
	}
	// Two full sweeps suffice: the first clears every reference bit,
	// the second must find a victim.
	for i := 0; i < 2*n; i++ {
		pos := s.hand
		s.hand++
		if s.hand == n {
			s.hand = 0
		}
		sl := &s.slots[pos]
		if !sl.live {
			continue
		}
		if sl.ref {
			sl.ref = false
			continue
		}
		s.remove(int32(pos), sl)
		s.evictions++
		return true
	}
	return false
}

// remove unlinks a live slot from its chain and returns it to the free
// list. Called with the shard mutex held.
func (s *shard) remove(pos int32, sl *slot) {
	if head := s.index[sl.hash]; head == pos && sl.next < 0 {
		delete(s.index, sl.hash)
	} else {
		// The chain's last slot takes the removed one's place, as in a
		// bucket slice: scans pass the candidates (Collisions) they did.
		prev, last, lastPrev := int32(-1), head, int32(-1)
		for n := s.slots[last].next; n >= 0; n = s.slots[last].next {
			if n == pos {
				prev = last
			}
			lastPrev, last = last, n
		}
		s.slots[lastPrev].next = -1
		if last != pos {
			s.slots[last].next = sl.next
			if prev < 0 {
				s.index[sl.hash] = last
			} else {
				s.slots[prev].next = last
			}
		}
	}
	s.bytes -= int64(sl.charge) + entryOverhead
	s.stored -= int64(sl.klen)
	s.freePiece(piece{sl.chunk, sl.off}, int(sl.klen))
	s.live--
	sl.live = false
	s.free = append(s.free, pos)
}

// Stats aggregates every shard's counters. It locks shards one at a
// time, so a snapshot taken during a search is internally consistent
// per shard but not across shards — exact once the search has drained.
func (c *Cache) Stats() Stats {
	st := Stats{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Inserts += s.inserts
		st.Reexpansions += s.reexpansions
		st.Evictions += s.evictions
		st.Collisions += s.collisions
		st.Entries += s.live
		st.Bytes += s.bytes
		st.Stored += s.stored
		st.Carved += s.carved
		s.mu.Unlock()
	}
	st.Segments, st.SegmentBytes = c.segs.Size()
	return st
}

// ShardOccupancy returns the live entry count of each shard, in shard
// order — the source of the per-shard occupancy gauges.
func (c *Cache) ShardOccupancy() []int64 {
	out := make([]int64, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i] = s.live
		s.mu.Unlock()
	}
	return out
}

// Shards returns the (normalized) shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// Segments returns the cache's segment table: the ids in the keys a
// search stores here come from it.
func (c *Cache) Segments() *Segments { return &c.segs }

// FNV1a hashes b with 64-bit FNV-1a: a deterministic streaming hash,
// so shard routing and bucket layout do not vary across runs.
func FNV1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
