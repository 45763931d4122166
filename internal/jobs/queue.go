package jobs

import (
	"errors"
	"sync"
)

// ErrSaturated is returned by queue.push — and surfaced as HTTP 429 —
// when the queue is at capacity and the new job outranks nothing
// evictable.
var ErrSaturated = errors.New("jobs: queue saturated")

// ErrClosed is returned by queue operations after close.
var ErrClosed = errors.New("jobs: queue closed")

// queue is the bounded priority admission queue: higher Req.Priority pops
// first, FIFO within a priority (by admission Seq). When full, a push
// may shed load by evicting the oldest queued job whose priority is
// strictly lower than the incoming job's; otherwise the push fails
// with ErrSaturated. The bound is a hard invariant: len never exceeds
// cap at any instant, which TestQueueNeverExceedsBound hammers.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	items  []*Job // unordered; scanned on pop/evict (cap is small)
	closed bool
	sheds  int64 // evicted jobs, for the invariant check against obs
}

func newQueue(capacity int) *queue {
	q := &queue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push admits a job, possibly evicting a strictly lower-priority one
// (returned as evicted, already removed and counted as shed). A full
// queue with nothing evictable returns ErrSaturated.
func (q *queue) push(j *Job) (evicted *Job, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	if len(q.items) >= q.cap {
		vi := -1
		for i, cand := range q.items {
			if cand.Req.Priority >= j.Req.Priority {
				continue
			}
			if vi == -1 || less(cand, q.items[vi]) {
				vi = i
			}
		}
		if vi == -1 {
			return nil, ErrSaturated
		}
		evicted = q.items[vi]
		q.items[vi] = q.items[len(q.items)-1]
		q.items = q.items[:len(q.items)-1]
		q.sheds++
	}
	q.items = append(q.items, j)
	q.cond.Signal()
	return evicted, nil
}

// less orders two queued jobs for eviction: lower priority first, then
// older (smaller Seq) first — "oldest-low-priority" sheds first.
func less(a, b *Job) bool {
	if a.Req.Priority != b.Req.Priority {
		return a.Req.Priority < b.Req.Priority
	}
	return a.Seq < b.Seq
}

// pop blocks until a job is available — highest priority first, FIFO
// within a priority — or the queue closes (nil, ErrClosed).
func (q *queue) pop() (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.items) > 0 {
			best := 0
			for i := 1; i < len(q.items); i++ {
				if popBefore(q.items[i], q.items[best]) {
					best = i
				}
			}
			j := q.items[best]
			q.items[best] = q.items[len(q.items)-1]
			q.items = q.items[:len(q.items)-1]
			return j, nil
		}
		if q.closed {
			return nil, ErrClosed
		}
		q.cond.Wait()
	}
}

// popBefore orders jobs for dispatch: higher priority first, then
// older first.
func popBefore(a, b *Job) bool {
	if a.Req.Priority != b.Req.Priority {
		return a.Req.Priority > b.Req.Priority
	}
	return a.Seq < b.Seq
}

// remove takes a specific job out of the queue (cancellation); it
// reports whether the job was queued.
func (q *queue) remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, cand := range q.items {
		if cand == j {
			q.items[i] = q.items[len(q.items)-1]
			q.items = q.items[:len(q.items)-1]
			return true
		}
	}
	return false
}

// close wakes all poppers; subsequent pushes and pops fail with
// ErrClosed once drained.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth returns the current queue length.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// shedCount returns how many jobs eviction has removed.
func (q *queue) shedCount() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sheds
}
