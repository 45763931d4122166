package statecache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestVisitBasics(t *testing.T) {
	c := New(Config{Shards: 4})
	if c.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", c.Shards())
	}
	if c.Visit([]byte("a"), 3) {
		t.Fatal("first visit of a pruned")
	}
	if !c.Visit([]byte("a"), 3) {
		t.Fatal("equal-depth revisit of a not pruned")
	}
	if !c.Visit([]byte("a"), 9) {
		t.Fatal("deeper revisit of a not pruned")
	}
	if c.Visit([]byte("b"), 3) {
		t.Fatal("first visit of b pruned")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Inserts != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShallowerRevisitReexpands(t *testing.T) {
	c := New(Config{Shards: 1})
	key := []byte("state")
	if c.Visit(key, 10) {
		t.Fatal("first visit pruned")
	}
	// Strictly shallower: must re-expand and lower the recorded depth.
	if c.Visit(key, 4) {
		t.Fatal("shallower revisit pruned")
	}
	// The recorded depth is now 4, so a depth-7 revisit prunes...
	if !c.Visit(key, 7) {
		t.Fatal("deeper-than-recorded revisit not pruned")
	}
	// ...and a depth-3 one re-expands again.
	if c.Visit(key, 3) {
		t.Fatal("second shallower revisit pruned")
	}
	st := c.Stats()
	if st.Reexpansions != 2 {
		t.Fatalf("reexpansions = %d, want 2", st.Reexpansions)
	}
	if st.Entries != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCollisionsAreExact forces every key onto one hash value and
// checks that distinct fingerprints never prune each other: membership
// is decided by the full key bytes, the hash only routes.
func TestCollisionsAreExact(t *testing.T) {
	c := New(Config{Shards: 8, Hash: func([]byte) uint64 { return 42 }})
	const n = 64
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("state-%d", i))
		if c.Visit(key, 0) {
			t.Fatalf("fresh state %d pruned by a colliding entry", i)
		}
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("state-%d", i))
		if !c.Visit(key, 0) {
			t.Fatalf("revisit of state %d not pruned", i)
		}
	}
	st := c.Stats()
	if st.Entries != n || st.Hits != n || st.Inserts != n {
		t.Fatalf("stats = %+v", st)
	}
	if st.Collisions == 0 {
		t.Fatal("no collisions counted under a constant hash")
	}
}

// TestDefaultHashIsFNV1a pins the default hash (shard routing must not
// vary across runs or builds).
func TestDefaultHashIsFNV1a(t *testing.T) {
	if got := FNV1a(nil); got != 14695981039346656037 {
		t.Errorf("FNV1a(nil) = %d", got)
	}
	// Known FNV-1a 64-bit vector.
	if got := FNV1a([]byte("a")); got != 0xaf63dc4c8601ec8c {
		t.Errorf("FNV1a(a) = %#x", got)
	}
}

func TestEvictionUnderBudget(t *testing.T) {
	// One shard, room for about 4 entries of 32-byte keys.
	c := New(Config{Shards: 1, MaxBytes: 4 * (32 + entryOverhead)})
	key := func(i int) []byte { return []byte(fmt.Sprintf("%032d", i)) }
	for i := 0; i < 100; i++ {
		if c.Visit(key(i), 0) {
			t.Fatalf("fresh key %d pruned", i)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under a 4-entry budget")
	}
	if st.Entries > 4 {
		t.Fatalf("entries = %d, want <= 4", st.Entries)
	}
	if st.Bytes > 4*(32+entryOverhead) {
		t.Fatalf("bytes = %d over budget", st.Bytes)
	}
	// Evicted entries are forgotten, not corrupted: an early key
	// re-inserts cleanly and prunes its own revisit.
	if c.Visit(key(0), 0) {
		t.Fatal("evicted key pruned on reinsert")
	}
	if !c.Visit(key(0), 0) {
		t.Fatal("reinserted key not pruned on revisit")
	}
}

// TestSecondChance checks the reference bit: a recently hit entry
// survives one eviction pass in favor of a cold one.
func TestSecondChance(t *testing.T) {
	c := New(Config{Shards: 1, MaxBytes: 2 * (4 + entryOverhead)})
	if c.Visit([]byte("hot0"), 0) || c.Visit([]byte("cld0"), 0) {
		t.Fatal("fresh keys pruned")
	}
	if !c.Visit([]byte("hot0"), 0) {
		t.Fatal("hot key not pruned on revisit")
	}
	// Inserting a third entry must evict the cold one (hot0 holds a
	// reference bit and gets a second chance).
	if c.Visit([]byte("new0"), 0) {
		t.Fatal("fresh third key pruned")
	}
	if !c.Visit([]byte("hot0"), 0) {
		t.Fatal("hot key was evicted despite its reference bit")
	}
}

func TestOversizeEntrySkipped(t *testing.T) {
	c := New(Config{Shards: 1, MaxBytes: entryOverhead + 8})
	big := make([]byte, 1024)
	if c.Visit(big, 0) {
		t.Fatal("oversize fresh key pruned")
	}
	// Not stored: the revisit is a miss again (pruning degraded,
	// soundness kept).
	if c.Visit(big, 0) {
		t.Fatal("oversize key was stored despite exceeding the budget")
	}
	if st := c.Stats(); st.Entries != 0 || st.Inserts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShardNormalization(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16},
		{maxShards, maxShards}, {maxShards + 1, maxShards},
	} {
		if got := New(Config{Shards: tc.in}).Shards(); got != tc.want {
			t.Errorf("Shards %d -> %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestConcurrentVisits hammers one cache from many goroutines (run
// under -race by verify.sh): every key is visited by several
// goroutines, exactly one of which may win the insert; totals must
// balance.
func TestConcurrentVisits(t *testing.T) {
	for _, maxBytes := range []int64{0, 64 * 1024} {
		c := New(Config{Shards: 8, MaxBytes: maxBytes})
		const (
			goroutines = 8
			keys       = 2000
		)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < keys; i++ {
					k := rng.Intn(keys)
					c.Visit([]byte(fmt.Sprintf("key-%06d", k)), k%7)
				}
			}(int64(g))
		}
		wg.Wait()
		st := c.Stats()
		if st.Hits+st.Misses != goroutines*keys {
			t.Fatalf("maxBytes=%d: hits+misses = %d, want %d", maxBytes, st.Hits+st.Misses, goroutines*keys)
		}
		if maxBytes == 0 {
			if st.Evictions != 0 {
				t.Fatalf("evictions = %d on an unbounded cache", st.Evictions)
			}
			if st.Entries != st.Inserts {
				t.Fatalf("entries = %d, inserts = %d", st.Entries, st.Inserts)
			}
		}
		var occ int64
		for _, n := range c.ShardOccupancy() {
			occ += n
		}
		if occ != st.Entries {
			t.Fatalf("shard occupancy sums to %d, entries = %d", occ, st.Entries)
		}
	}
}
