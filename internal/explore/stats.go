package explore

import (
	"sync"
	"sync/atomic"
	"time"
)

// sharedState is what the engines of one search share, at every worker
// count: the state and path counters behind the MaxStates budget and
// the checkpoint cadence, and the two flags that send workers
// back to the driver — stop (the search is being cut; honoured at the
// next fresh state) and pause (a checkpoint is due; honoured at the next
// path boundary, with every stack left as it stands).
type sharedState struct {
	states atomic.Int64
	paths  atomic.Int64
	// published is the part of states the engines have published
	// (engine.publish), what StatesAtFirstIncident adds to.
	published atomic.Int64

	maxStates int64 // 0 = unbounded
	// reserved, under budgetMu, is the part of states that slices in
	// flight and engines hold and have not explored yet (reserve, credit).
	budgetMu sync.Mutex
	reserved int64
	// ckptEveryPaths, when > 0, requests a checkpoint pause every time
	// the shared path counter crosses a multiple of it.
	ckptEveryPaths int64
	stop           atomic.Bool
	pause          atomic.Bool
	// causeVal records why the stop flag was raised (StopCause); the
	// first requester wins. It is written before stop flips so a
	// worker that observes the flag always reads a non-zero cause.
	causeVal atomic.Int32
	// wake, if non-nil, is invoked when either flag flips, so workers
	// sleeping on the frontier observe it; abort, if non-nil, when stop
	// does: it ends the slices in flight (dist.go).
	wake, abort func()
	// failure is the error that ended the search (fail), nil for none.
	failure  error
	failOnce sync.Once
	// leafMu serializes Options.OnLeaf across workers.
	leafMu sync.Mutex
}

func (s *sharedState) stopped() bool { return s.stop.Load() }

func (s *sharedState) cause() StopCause { return StopCause(s.causeVal.Load()) }

// yielding reports whether workers should return to the driver: the
// search is stopping, or pausing for a checkpoint.
func (s *sharedState) yielding() bool { return s.stop.Load() || s.pause.Load() }

// requestStop raises the stop flag with the given cause; only the first
// cause sticks.
func (s *sharedState) requestStop(c StopCause) {
	if s.causeVal.CompareAndSwap(int32(StopNone), int32(c)) {
		s.stop.Store(true)
		if s.wake != nil {
			s.wake()
		}
		if s.abort != nil {
			s.abort()
		}
	}
}

// fail stops the search on an error it cannot go on from; search returns
// the first one instead of a report.
func (s *sharedState) fail(err error) {
	s.failOnce.Do(func() { s.failure = err })
	s.requestStop(StopCancelled)
}

// reserve takes up to n states out of the MaxStates budget for a slice
// about to run elsewhere or an engine's next states, counting them before
// they are explored, and returns how many it got (n when there is no
// budget). At zero, spent says whether the budget is used up or only held
// by slices still in flight, which credit what they leave over.
func (s *sharedState) reserve(n int64) (got int64, spent bool) {
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	if s.maxStates > 0 {
		n = min(n, s.maxStates-s.states.Load())
	}
	if n <= 0 {
		return 0, s.reserved == 0
	}
	s.states.Add(n)
	s.reserved += n
	return n, false
}

// credit ends a reservation of got states of which used were explored.
func (s *sharedState) credit(got, used int64) {
	s.budgetMu.Lock()
	s.states.Add(used - got)
	s.reserved -= got
	s.budgetMu.Unlock()
}

// notePaths counts n more completed paths and requests a checkpoint
// pause when the count crosses a multiple of the path cadence.
func (s *sharedState) notePaths(n int64) {
	if total, every := s.paths.Add(n), s.ckptEveryPaths; every > 0 && total/every != (total-n)/every {
		s.requestPause()
	}
}

// requestPause asks every worker to return at its next path boundary so
// the driver can read a checkpoint off them.
func (s *sharedState) requestPause() {
	if s.pause.CompareAndSwap(false, true) && s.wake != nil {
		s.wake()
	}
}

// clearPause re-arms the pause flag after a checkpoint. It must only be
// called while no workers are running.
func (s *sharedState) clearPause() { s.pause.Store(false) }

// WorkerStat reports one worker's share of a search (the inline worker
// of Workers: 0 is worker 0).
type WorkerStat struct {
	Units  int64 // work units claimed
	States int64 // global states this worker visited
	Paths  int64 // paths this worker completed
	Busy   time.Duration
	// Utilization is Busy divided by the search's wall-clock time.
	Utilization float64
}
