package jobs

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"reclose/internal/explore"
	"reclose/internal/lockserver"
)

// TestRequestLivenessValidation pins the admission contract for the
// liveness field: plain liveness is accepted, liveness with the dynamic
// reduction is rejected (the search needs the strict static oracle, and
// the API refuses rather than silently downgrading).
func TestRequestLivenessValidation(t *testing.T) {
	if _, err := ParseRequest([]byte(`{"source":"x","liveness":true}`)); err != nil {
		t.Errorf("liveness request rejected: %v", err)
	}
	if _, err := ParseRequest([]byte(`{"source":"x","liveness":true,"por":"static"}`)); err != nil {
		t.Errorf("liveness+static rejected: %v", err)
	}
	if _, err := ParseRequest([]byte(`{"source":"x","liveness":true,"por":"dynamic"}`)); err == nil {
		t.Error("liveness+dynamic accepted, want admission error")
	}
}

// TestJobLivenessFindsLivelock runs a seeded-livelock workload as a job
// and checks the livelock count survives the Report→Result projection
// and the HTTP round trip.
func TestJobLivenessFindsLivelock(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1})
	req := Request{
		Source:   lockserver.Source(lockserver.Config{Clients: 2, Rounds: 1, GreedyClient: true}),
		Liveness: true,
		MaxDepth: 120,
	}
	body, _ := json.Marshal(req)
	resp, v := postJob(t, srv, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	got := pollDone(t, m, srv, v.ID)
	if got.Result == nil || got.Result.Livelocks == 0 {
		t.Fatalf("result = %+v, want livelocks", got.Result)
	}
	found := false
	for _, s := range got.Result.Samples {
		if s.Kind == "livelock" {
			found = true
		}
	}
	if !found {
		t.Errorf("no livelock sample in %+v", got.Result.Samples)
	}
}

// TestResultCarriesRedCut pins the completeness field of a job result:
// the count of red searches that ran out of budget is projected from the
// report, and absent from the JSON of a run that cut none.
func TestResultCarriesRedCut(t *testing.T) {
	cut, _ := json.Marshal(resultFromReport(&explore.Report{Counters: explore.Counters{RedSearches: 5, RedCut: 3}}))
	if !strings.Contains(string(cut), `"liveness_red_searches_cut":3`) {
		t.Errorf("result lacks the cut count: %s", cut)
	}
	clean, _ := json.Marshal(resultFromReport(&explore.Report{Counters: explore.Counters{RedSearches: 5}}))
	if strings.Contains(string(clean), "liveness_red_searches_cut") {
		t.Errorf("result of a run that cut nothing mentions cuts: %s", clean)
	}
}

// TestRetryAfterEstimate pins the Retry-After computation against a
// stepped clock: the drain history is built from injected timestamps,
// never the wall clock.
func TestRetryAfterEstimate(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// Eight pops, one every 500ms: 2 pops/sec over a 3.5s window.
	var drains []time.Time
	for i := 0; i < 8; i++ {
		drains = append(drains, base.Add(time.Duration(i)*500*time.Millisecond))
	}
	for _, tc := range []struct {
		depth  int
		drains []time.Time
		want   int64
	}{
		{depth: 6, drains: drains, want: 3}, // 6 queued / 2 per sec
		{depth: 1, drains: drains, want: 1}, // rounds up to the floor
		{depth: 1000, drains: drains, want: maxRetryAfterSeconds},
		{depth: 6, drains: nil, want: 1},                     // no history yet
		{depth: 6, drains: drains[:1], want: 1},              // one pop is not a rate
		{depth: 6, drains: []time.Time{base, base}, want: 1}, // zero-width window
		{depth: 0, drains: drains, want: 1},                  // empty queue
	} {
		if got := retryAfterEstimate(tc.depth, tc.drains); got != tc.want {
			t.Errorf("retryAfterEstimate(%d, %d drains) = %d, want %d",
				tc.depth, len(tc.drains), got, tc.want)
		}
	}
}

// TestManagerDrainClockSeam checks the manager records drain times from
// the injected clock, not time.Now — the seam TestRetryAfterEstimate
// relies on.
func TestManagerDrainClockSeam(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ticks := 0
	m, err := Open(Config{DataDir: t.TempDir(), Workers: 1, Clock: func() time.Time {
		ticks++
		return base.Add(time.Duration(ticks) * time.Second)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)
	v, err := m.Submit(philReq())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.drains) != 1 {
		t.Fatalf("drains = %d, want 1", len(m.drains))
	}
	if !m.drains[0].After(base) || m.drains[0].After(base.Add(time.Hour)) {
		t.Errorf("drain time %v not from the injected clock", m.drains[0])
	}
}
