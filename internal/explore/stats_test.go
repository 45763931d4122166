package explore

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRequestStopFirstCauseWins pins the stop-cause protocol: the first
// requester's cause sticks, later requests are ignored, and the wake
// hook fires exactly once.
func TestRequestStopFirstCauseWins(t *testing.T) {
	var woke atomic.Int64
	s := &sharedState{wake: func() { woke.Add(1) }}
	if s.stopped() || s.cause() != StopNone {
		t.Fatal("fresh sharedState is already stopped")
	}
	s.requestStop(StopTimeout)
	s.requestStop(StopCancelled)
	s.requestStop(StopMaxStates)
	if !s.stopped() {
		t.Error("stop flag not raised")
	}
	if got := s.cause(); got != StopTimeout {
		t.Errorf("cause = %v, want %v (first wins)", got, StopTimeout)
	}
	if got := woke.Load(); got != 1 {
		t.Errorf("wake fired %d times, want 1", got)
	}
}

// TestRequestStopConcurrent races many requesters with distinct causes:
// exactly one must win, the flag must be up, and under -race this
// proves the protocol is data-race-free.
func TestRequestStopConcurrent(t *testing.T) {
	s := &sharedState{}
	causes := []StopCause{StopTimeout, StopCancelled, StopMaxStates, StopIncident}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(c StopCause) {
			defer wg.Done()
			s.requestStop(c)
		}(causes[i%len(causes)])
	}
	wg.Wait()
	if !s.stopped() {
		t.Error("stop flag not raised")
	}
	got := s.cause()
	found := false
	for _, c := range causes {
		if got == c {
			found = true
		}
	}
	if !found {
		t.Errorf("cause = %v, not one of the requested causes", got)
	}
}

// TestClearPause checks the checkpoint pause protocol: a pause wakes the
// frontier once and makes workers yield without stopping the search, and
// after clearPause the state accepts a fresh pause — which is how the
// search continues after each checkpoint.
func TestClearPause(t *testing.T) {
	var woke atomic.Int64
	s := &sharedState{wake: func() { woke.Add(1) }}
	s.requestPause()
	s.requestPause()
	if !s.yielding() || s.stopped() || s.cause() != StopNone {
		t.Fatalf("after pause: yielding=%v stopped=%v cause=%v", s.yielding(), s.stopped(), s.cause())
	}
	if got := woke.Load(); got != 1 {
		t.Errorf("wake fired %d times, want 1", got)
	}
	s.clearPause()
	if s.yielding() {
		t.Fatal("still yielding after clearPause")
	}
	s.requestPause()
	if !s.yielding() {
		t.Error("pause did not re-arm")
	}
	s.requestStop(StopTimeout)
	if s.cause() != StopTimeout {
		t.Errorf("cause after a stop during a pause = %v, want %v", s.cause(), StopTimeout)
	}
}

// TestSharedSnapshot checks that a progress snapshot reads every shared
// counter and the frontier's queued length.
func TestSharedSnapshot(t *testing.T) {
	s := &sharedState{}
	s.states.Store(100)
	s.transitions.Store(90)
	s.replaySteps.Store(8)
	s.paths.Store(7)
	s.incidents.Store(2)
	f := newFrontier(2, false, s, noMetrics)
	f.push(0, &workUnit{root: true})
	f.push(1, &workUnit{root: true})

	st := s.snapshot(4, f, time.Now().Add(-time.Second))
	if st.States != 100 || st.Transitions != 90 || st.ReplaySteps != 8 ||
		st.Paths != 7 || st.Incidents != 2 {
		t.Errorf("snapshot counters = %+v", st)
	}
	if st.FrontierUnits != 2 {
		t.Errorf("FrontierUnits = %d, want 2", st.FrontierUnits)
	}
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
	if st.Elapsed < time.Second {
		t.Errorf("Elapsed = %v, want >= 1s", st.Elapsed)
	}
}

// TestStartProgressFinalDelivery checks that stopping the progress
// ticker delivers one final snapshot even when the period never
// elapsed — the caller always sees the end state.
func TestStartProgressFinalDelivery(t *testing.T) {
	var calls atomic.Int64
	var last atomic.Int64
	opt := Options{
		Workers:       2,
		ProgressEvery: time.Hour, // never ticks during the test
		Progress: func(st Stats) {
			calls.Add(1)
			last.Store(st.States)
		},
	}
	s := &sharedState{}
	f := newFrontier(2, false, s, noMetrics)
	stop := startProgress(opt, s, f, time.Now())
	s.states.Store(42)
	stop()
	if got := calls.Load(); got != 1 {
		t.Errorf("progress called %d times, want exactly the final delivery", got)
	}
	if got := last.Load(); got != 42 {
		t.Errorf("final snapshot states = %d, want 42", got)
	}
}

// TestStartProgressNil checks the disabled form: no Progress callback
// means startProgress must be inert and its stop function safe.
func TestStartProgressNil(t *testing.T) {
	stop := startProgress(Options{}, &sharedState{}, nil, time.Now())
	stop() // must not panic
}
