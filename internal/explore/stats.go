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
	// sleeping on the frontier observe it.
	wake func()
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
	return Stats{
		States:        s.states.Load(),
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
