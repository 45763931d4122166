package statecache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// segmentHashes are a hash that spreads segments over the table and one
// that starts every probe at one slot, where only the byte compare tells
// two segments apart.
var segmentHashes = map[string]func([]byte) uint64{
	"fnv":      FNV1a,
	"one-slot": func([]byte) uint64 { return 42 },
}

// TestSegmentsAreExact enters segments that differ as little as segments
// can — one a prefix of another, the empty one, one byte apart, one
// longer than a chunk — and requires dense ids from 1 in order of first
// sight, the same id for the same bytes ever after, and every id's text
// back byte for byte.
func TestSegmentsAreExact(t *testing.T) {
	for name, hash := range segmentHashes {
		tab := new(Segments)
		segs := [][]byte{
			[]byte("|P0:0/main@n3,x=1"),
			[]byte("|P0:0/main@n3,x=12"),
			[]byte("|P0:0/main@n3,x=2"),
			{},
			[]byte("c=[1 2];"),
			bytes.Repeat([]byte("long"), chunkSize/4+1),
		}
		for round := 0; round < 2; round++ {
			for i, seg := range segs {
				if id := tab.Intern(hash(seg), append([]byte(nil), seg...)); id != uint32(i+1) {
					t.Fatalf("%s: round %d: Intern(%.20q) = %d, want %d", name, round, seg, id, i+1)
				}
			}
		}
		total := int64(0)
		for i, seg := range segs {
			if got := tab.AppendText([]byte("x"), uint32(i+1)); !bytes.Equal(got[1:], seg) || got[0] != 'x' {
				t.Fatalf("%s: text of %d = %.20q, want %.20q", name, i+1, got, seg)
			}
			if got := tab.Text(uint32(i + 1)); !bytes.Equal(got, seg) {
				t.Fatalf("%s: Text(%d) = %.20q, want %.20q", name, i+1, got, seg)
			}
			total += int64(len(seg))
		}
		if n, b := tab.Size(); n != int64(len(segs)) || b != total {
			t.Fatalf("%s: Size() = %d segments, %d bytes, want %d, %d", name, n, b, len(segs), total)
		}
	}
}

// TestSegmentsConcurrent has several goroutines enter overlapping sets of
// segments at once, as the workers of a search do: every text must come
// out with one id, whoever entered it (run under -race by verify.sh).
func TestSegmentsConcurrent(t *testing.T) {
	for name, hash := range segmentHashes {
		tab := New(Config{}).Segments()
		const workers, n = 4, 300
		ids := make([][]uint32, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ids[w] = make([]uint32, n)
				for i := 0; i < n; i++ {
					k := (i*7 + w*13) % n // each worker in its own order
					seg := []byte(fmt.Sprintf("|P%d:0/worker@n%d", k%5, k))
					ids[w][k] = tab.Intern(hash(seg), seg)
				}
			}(w)
		}
		wg.Wait()
		seen := make(map[uint32]int)
		for k := 0; k < n; k++ {
			id := ids[0][k]
			for w := 1; w < workers; w++ {
				if ids[w][k] != id {
					t.Fatalf("%s: segment %d is %d to worker 0 and %d to worker %d", name, k, id, ids[w][k], w)
				}
			}
			if prev, dup := seen[id]; dup || id == 0 {
				t.Fatalf("%s: segments %d and %d share id %d", name, prev, k, id)
			}
			seen[id] = k
		}
		if got, _ := tab.Size(); got != n {
			t.Fatalf("%s: %d segments in the table, want %d", name, got, n)
		}
	}
}

// TestEvictedPiecesAreReused pins what a misfit costs a bounded cache:
// nothing lasting. Keys of a dozen lengths come and go under a budget of
// some sixty entries; every evicted key's piece must serve a later key of
// its size, so what the shard has carved stays near what it holds
// however long the run. (Slots once kept their pieces, and a key longer
// than its slot's piece carved a new one: 2.8 times the live bytes on the
// lock server under 8 MiB.)
func TestEvictedPiecesAreReused(t *testing.T) {
	c := New(Config{Shards: 1, MaxBytes: 64 * (100 + entryOverhead)})
	key := make([]byte, 160)
	peak := int64(0)
	for i := 0; i < 20000; i++ {
		n := 40 + 8*(i*i%13) // 40..136, in no order
		for j := 0; j < 8; j++ {
			key[j] = byte(i >> (8 * j))
		}
		c.VisitCharged(FNV1a(key[:8]), key[:n], 100, 0)
		if i == 2000 {
			peak = c.Stats().Carved
		}
	}
	st := c.Stats()
	if st.Evictions < 19000 || st.Entries != 64 {
		t.Fatalf("the run did not churn: %+v", st)
	}
	// A piece of each size may lie free beside the live ones.
	if st.Carved > st.Stored+13*136 {
		t.Errorf("%d bytes carved for %d held", st.Carved, st.Stored)
	}
	if st.Carved > peak+13*136 {
		t.Errorf("carved bytes grew from %d to %d over the run", peak, st.Carved)
	}
}
