package explore

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stats is a live snapshot of a running search, delivered through
// Options.Progress.
type Stats struct {
	States      int64
	Transitions int64
	ReplaySteps int64
	Paths       int64
	Incidents   int64
	// FrontierUnits is the number of work units currently queued on the
	// frontier.
	FrontierUnits int64
	Workers       int
	Elapsed       time.Duration
}

// sharedState is what the engines of one search share, at every worker
// count: the atomic counters behind progress snapshots, the MaxStates
// budget and the checkpoint cadence, and the two flags that send workers
// back to the driver — stop (the search is being cut; honoured at the
// next fresh state) and pause (a checkpoint is due; honoured at the next
// path boundary, with every stack left as it stands).
type sharedState struct {
	states      atomic.Int64
	transitions atomic.Int64
	replaySteps atomic.Int64
	paths       atomic.Int64
	incidents   atomic.Int64

	maxStates int64 // 0 = unbounded
	// reserved, under budgetMu, is the part of states that slices in
	// flight hold and have not explored yet (reserve, credit). An engine
	// reserves the one state it is at, with an atomic add.
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
// about to run elsewhere, counting them before they are explored as an
// engine does with the one state it is at, and returns how many it got
// (n when there is no budget). At zero, spent says whether the budget is
// used up or only held by slices still in flight, which credit what they
// leave over.
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

func (s *sharedState) snapshot(workers int, f *frontier, start time.Time) Stats {
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	return Stats{
		States:        s.states.Load() - s.reserved,
		Transitions:   s.transitions.Load(),
		ReplaySteps:   s.replaySteps.Load(),
		Paths:         s.paths.Load(),
		Incidents:     s.incidents.Load(),
		FrontierUnits: f.queued.Load(),
		Workers:       workers,
		Elapsed:       time.Since(start),
	}
}

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

// startProgress launches the search's progress ticker and returns a
// function that stops it (delivering one final snapshot).
func startProgress(opt Options, shared *sharedState, f *frontier, start time.Time) (stop func()) {
	if opt.Progress == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(opt.ProgressEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				opt.Progress(shared.snapshot(opt.Workers, f, start))
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		opt.Progress(shared.snapshot(opt.Workers, f, start))
	}
}
