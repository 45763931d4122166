package statecache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// This file keeps the cache as it was before its storage changed — a
// map from hash to a slice of slot positions, one allocated key per
// slot — as the executable statement of what the chained, chunked cache
// must still do: the same answer to every visit, and the same Stats
// after it, which covers the order evictions happen in (MaxBytes
// accounting, clock hand, LIFO free list) and the order a scan meets
// the candidates of one hash (Collisions). Only the names are changed,
// and an entry costs the budget what the visit says, not its length.

type refSlot struct {
	key    []byte
	hash   uint64
	charge int
	depth  int32
	ref    bool
	live   bool
}

type refShard struct {
	index map[uint64][]int32
	slots []refSlot
	free  []int32
	hand  int
	bytes int64
	keys  int64
	live  int64

	hits, misses, inserts, reexpansions, evictions, collisions int64
}

type refCache struct {
	shards []refShard
	mask   uint64
	hash   func([]byte) uint64
	maxPer int64
}

func newRefCache(cfg Config) *refCache {
	n := ceilPow2(cfg.Shards)
	c := &refCache{shards: make([]refShard, n), mask: uint64(n - 1), hash: cfg.Hash}
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
		c.shards[i].index = make(map[uint64][]int32)
	}
	return c
}

func (c *refCache) VisitCharged(h uint64, key []byte, charge, depth int) bool {
	s := &c.shards[h&c.mask]
	for _, pos := range s.index[h] {
		sl := &s.slots[pos]
		if !bytes.Equal(sl.key, key) {
			s.collisions++
			continue
		}
		if int32(depth) >= sl.depth {
			sl.ref = true
			s.hits++
			return true
		}
		sl.depth = int32(depth)
		sl.ref = true
		s.misses++
		s.reexpansions++
		return false
	}

	s.misses++
	cost := int64(charge) + entryOverhead
	if c.maxPer > 0 {
		for s.bytes+cost > c.maxPer {
			if !s.evictOne() {
				break
			}
		}
		if s.bytes+cost > c.maxPer {
			return false
		}
	}
	var pos int32
	if n := len(s.free); n > 0 {
		pos = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, refSlot{})
		pos = int32(len(s.slots) - 1)
	}
	sl := &s.slots[pos]
	sl.key = append([]byte(nil), key...)
	sl.hash, sl.charge = h, charge
	sl.depth = int32(depth)
	sl.ref = false
	sl.live = true
	s.index[h] = append(s.index[h], pos)
	s.bytes += cost
	s.keys += int64(len(key))
	s.live++
	s.inserts++
	return false
}

func (s *refShard) evictOne() bool {
	n := len(s.slots)
	if n == 0 || s.live == 0 {
		return false
	}
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

func (s *refShard) remove(pos int32, sl *refSlot) {
	bucket := s.index[sl.hash]
	for i, p := range bucket {
		if p == pos {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(s.index, sl.hash)
	} else {
		s.index[sl.hash] = bucket
	}
	s.bytes -= int64(sl.charge) + entryOverhead
	s.keys -= int64(len(sl.key))
	s.live--
	sl.key = nil
	sl.live = false
	s.free = append(s.free, pos)
}

func (c *refCache) Stats() Stats {
	st := Stats{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		st.Hits += s.hits
		st.Misses += s.misses
		st.Inserts += s.inserts
		st.Reexpansions += s.reexpansions
		st.Evictions += s.evictions
		st.Collisions += s.collisions
		st.Entries += s.live
		st.Bytes += s.bytes
		st.Stored += s.keys
	}
	return st
}

// TestCacheMatchesReference replays random visit sequences — few
// distinct keys of mixed lengths so revisits, shallower revisits and
// evictions all happen, under budgets from a couple of entries a shard
// to none — through both caches, with the default hash and with hashes
// that put many keys on one chain, charging a key its length on even
// seeds and, on odd ones, less the longer it is — and compares the answer
// of every visit and the whole Stats (but Carved, which is the storage's
// own) after every step.
func TestCacheMatchesReference(t *testing.T) {
	hashes := map[string]func([]byte) uint64{
		"fnv":      nil,
		"constant": func([]byte) uint64 { return 42 },
		"by-len":   func(b []byte) uint64 { return uint64(len(b)) % 5 },
		"mod-7":    func(b []byte) uint64 { return FNV1a(b) % 7 },
	}
	for name, hash := range hashes {
		for _, shards := range []int{1, 4} {
			for _, entries := range []int64{0, 2, 5, 40} {
				cfg := Config{Shards: shards, MaxBytes: entries * int64(shards) * (24 + entryOverhead), Hash: hash}
				label := fmt.Sprintf("%s/shards=%d/entries=%d", name, shards, entries)
				for seed := int64(0); seed < 6; seed++ {
					compareWithReference(t, fmt.Sprintf("%s/seed=%d", label, seed), cfg, seed, 3000)
				}
			}
		}
	}
}

func compareWithReference(t *testing.T, label string, cfg Config, seed int64, steps int) {
	t.Helper()
	c, ref := New(cfg), newRefCache(cfg)
	rng := rand.New(rand.NewSource(seed))
	universe := 20 + rng.Intn(200)
	key := func() []byte {
		k := rng.Intn(universe)
		// Lengths 3..~60, the long ones over a two-entry budget.
		return []byte(fmt.Sprintf("k%d/%s", k, bytes.Repeat([]byte{'x'}, k%7*k%60)))
	}
	for i := 0; i < steps; i++ {
		k, depth := key(), rng.Intn(6)
		h, charge := ref.hash(k), len(k)
		if seed%2 == 1 {
			charge = 70 - len(k) // keys are at most 64 bytes
		}
		got, want := c.VisitCharged(h, k, charge, depth), ref.VisitCharged(h, k, charge, depth)
		if got != want {
			t.Fatalf("%s: step %d: Visit(%q, %d) = %v, reference %v", label, i, k, depth, got, want)
		}
		gs, ws := c.Stats(), ref.Stats()
		if gs.Carved < gs.Stored {
			t.Fatalf("%s: step %d: %d key bytes in %d carved", label, i, gs.Stored, gs.Carved)
		}
		if gs.Carved = 0; gs != ws {
			t.Fatalf("%s: step %d: after Visit(%q, %d)\n  stats %+v\nreference %+v", label, i, k, depth, gs, ws)
		}
	}
}

// TestSteadyStateVisitAllocatesNothing fills a bounded cache and then
// visits fresh keys, each evicting an entry and taking over its slot and
// its piece of a chunk: storing a state costs no allocation.
func TestSteadyStateVisitAllocatesNothing(t *testing.T) {
	const keyLen = 300
	c := New(Config{Shards: 4, MaxBytes: 4 * 64 * (keyLen + entryOverhead)})
	key := make([]byte, keyLen)
	n := uint64(0)
	visit := func() {
		n++
		for i := 0; i < 8; i++ {
			key[i] = byte(n >> (8 * i))
		}
		if c.VisitCharged(FNV1a(key[:8]), key, keyLen, 0) {
			t.Fatal("fresh key pruned")
		}
	}
	for c.Stats().Evictions < 1000 {
		visit()
	}
	if a := testing.AllocsPerRun(2000, visit); a != 0 {
		t.Fatalf("steady-state VisitCharged allocates %v times per visit", a)
	}
	if st := c.Stats(); st.Entries > 4*64 || st.Inserts != int64(n) {
		t.Fatalf("stats = %+v after %d visits", st, n)
	}
}

// TestResetForgetsEntriesKeepsStorage pins what the red search's seen
// set relies on: after Reset nothing is remembered and the counters run
// on, and a fill-and-Reset cycle that fits the storage of the cycles
// before it allocates nothing.
func TestResetForgetsEntriesKeepsStorage(t *testing.T) {
	c := New(Config{Shards: 1})
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("red-state-%04d-%s", i, bytes.Repeat([]byte{'r'}, 250)))
	}
	fill := func() {
		for _, k := range keys {
			if c.Visit(k, 0) {
				t.Fatalf("key %.14s survived a Reset", k)
			}
		}
		if !c.Visit(keys[7], 0) {
			t.Fatal("a key stored since the Reset is not found")
		}
		c.Reset()
	}
	fill()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Inserts != int64(len(keys)) || st.Hits != 1 {
		t.Fatalf("after Reset: %+v", st)
	}
	fill() // grows the kept chunk to the cycle's size
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("a fill-and-Reset cycle allocates %v times", n)
	}
}
