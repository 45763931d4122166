package explore

import (
	"sync"
	"sync/atomic"
	"testing"
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
