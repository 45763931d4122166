package jobs

import (
	"errors"
	"sync"
	"testing"
)

func qj(seq uint64, prio int) *Job {
	return &Job{record: record{ID: "j", Req: Request{Priority: prio}, State: StateQueued, Seq: seq}}
}

func TestQueuePriorityThenFIFO(t *testing.T) {
	q := newQueue(8)
	// Admission order: low, high, low, high — pops must come back
	// high-priority first, FIFO within each priority.
	for _, j := range []*Job{qj(1, 0), qj(2, 5), qj(3, 0), qj(4, 5)} {
		if _, err := q.push(j); err != nil {
			t.Fatalf("push seq %d: %v", j.Seq, err)
		}
	}
	wantSeq := []uint64{2, 4, 1, 3}
	for i, want := range wantSeq {
		j, err := q.pop()
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if j.Seq != want {
			t.Errorf("pop %d: seq = %d, want %d", i, j.Seq, want)
		}
	}
}

func TestQueueShedsOldestLowerPriority(t *testing.T) {
	q := newQueue(3)
	low1, low2, mid := qj(1, 1), qj(2, 1), qj(3, 4)
	for _, j := range []*Job{low1, low2, mid} {
		q.push(j)
	}
	// Same priority as the lows: nothing strictly lower-priority than
	// priority 1? low1/low2 are priority 1, incoming is 1 → saturate.
	if _, err := q.push(qj(4, 1)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("equal-priority push on full queue: err = %v, want ErrSaturated", err)
	}
	// Higher priority: evicts the OLDEST strictly-lower job (low1).
	evicted, err := q.push(qj(5, 9))
	if err != nil {
		t.Fatalf("high-priority push: %v", err)
	}
	if evicted != low1 {
		t.Fatalf("evicted seq %d, want seq 1 (oldest lowest)", evicted.Seq)
	}
	if q.depth() != 3 {
		t.Fatalf("depth = %d, want 3 (bound held)", q.depth())
	}
	if q.shedCount() != 1 {
		t.Fatalf("shedCount = %d, want 1", q.shedCount())
	}
	// Even the mid-priority job is evictable by a 9.
	evicted, err = q.push(qj(6, 9))
	if err != nil || evicted != low2 {
		t.Fatalf("second high push: evicted %v err %v, want low2", evicted, err)
	}
	_ = mid
}

// TestQueueNeverExceedsBound hammers a small queue from many goroutines
// and asserts the occupancy invariant at every observation point, plus
// the shed-accounting identity: pushes = pops + sheds + saturations +
// still-queued. Run under -race this also exercises the locking.
func TestQueueNeverExceedsBound(t *testing.T) {
	const (
		capacity = 4
		pushers  = 8
		perG     = 200
	)
	q := newQueue(capacity)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		saturated int64
		accepted  int64
		popped    int64
	)
	stop := make(chan struct{})
	// One consumer drains slowly enough to keep the queue contended.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			_, err := q.pop()
			if err != nil {
				return
			}
			mu.Lock()
			popped++
			mu.Unlock()
		}
	}()
	var pg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		pg.Add(1)
		go func(g int) {
			defer pg.Done()
			for i := 0; i < perG; i++ {
				j := qj(uint64(g*perG+i), (g*7+i)%10)
				_, err := q.push(j)
				mu.Lock()
				if errors.Is(err, ErrSaturated) {
					saturated++
				} else if err == nil {
					accepted++
				}
				mu.Unlock()
				if d := q.depth(); d > capacity {
					t.Errorf("depth %d exceeds bound %d", d, capacity)
				}
			}
		}(g)
	}
	pg.Wait()
	close(stop)
	// Close and let the consumer drain what is left: pop hands out the
	// queued jobs before it reports ErrClosed. (Popping from here too
	// raced the consumer for the last job and, losing, blocked in pop
	// before ever reaching close.)
	q.close()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	total := int64(pushers * perG)
	if accepted+saturated != total {
		t.Errorf("accepted %d + saturated %d != pushes %d", accepted, saturated, total)
	}
	// Every accepted job was either popped or shed; the queue is empty.
	if popped+q.shedCount() != accepted {
		t.Errorf("popped %d + shed %d != accepted %d", popped, q.shedCount(), accepted)
	}
	if q.depth() != 0 {
		t.Errorf("queue not drained: depth %d", q.depth())
	}
}

func TestQueueCloseUnblocksPop(t *testing.T) {
	q := newQueue(2)
	done := make(chan error, 1)
	go func() {
		_, err := q.pop()
		done <- err
	}()
	q.close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("pop after close: %v, want ErrClosed", err)
	}
	if _, err := q.push(qj(1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
}

func TestQueueRemove(t *testing.T) {
	q := newQueue(4)
	a, b := qj(1, 0), qj(2, 0)
	q.push(a)
	q.push(b)
	if !q.remove(a) {
		t.Fatal("remove(a) = false, want true")
	}
	if q.remove(a) {
		t.Fatal("second remove(a) = true, want false")
	}
	j, _ := q.pop()
	if j != b {
		t.Fatalf("pop = seq %d, want b (seq 2)", j.Seq)
	}
}
