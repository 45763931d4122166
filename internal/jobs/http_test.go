package jobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"reclose/internal/faultinject"
	"reclose/internal/obs"
	"reclose/internal/progs"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m, cfg.Obs))
	t.Cleanup(func() {
		srv.Close()
		drain(t, m)
	})
	return m, srv
}

func postJob(t *testing.T, srv *httptest.Server, body string) (*http.Response, *View) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return resp, &v
	}
	return resp, nil
}

// pollDone waits event-driven for the job to finish (no wall-clock
// polling loop), then reads its final view through the HTTP API so the
// submit→poll→result path stays covered end to end.
func pollDone(t *testing.T, m *Manager, srv *httptest.Server, id string) *View {
	t.Helper()
	got, ok := m.AwaitState(id, 30*time.Second, StateDone)
	if got == nil {
		t.Fatalf("job %s vanished", id)
	}
	if !ok {
		t.Fatalf("job %s never finished: %s (%s)", id, got.State, got.Error)
	}
	resp, err := http.Get(srv.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone {
		t.Fatalf("job %s: GET shows %s after done", id, v.State)
	}
	return &v
}

func TestHTTPSubmitPollResult(t *testing.T) {
	reg := obs.New()
	m, srv := newTestServer(t, Config{Workers: 1, Obs: reg})
	body, _ := json.Marshal(Request{Source: progs.Philosophers(3)})
	resp, v := postJob(t, srv, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	got := pollDone(t, m, srv, v.ID)
	if got.Result == nil || got.Result.Deadlocks == 0 {
		t.Fatalf("result = %+v, want deadlocks", got.Result)
	}

	// The list shows it; metrics are served.
	lresp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []View
	json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if len(list) != 1 || list[0].ID != v.ID {
		t.Fatalf("GET /jobs = %+v", list)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	json.NewDecoder(mresp.Body).Decode(&doc)
	mresp.Body.Close()
	if doc.Counters[MetricCompleted] != 1 {
		t.Errorf("metrics %s = %d, want 1", MetricCompleted, doc.Counters[MetricCompleted])
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`not json`,
		`{}`,
		`{"source":"x","priority":99}`,
		`{"source":"x","close":"naive"}`,
		`{"source":"x","engine":"slots"}`, // the deleted tier is no engine
		`{"source":"x","engine":"valves"}`,
	} {
		resp, _ := postJob(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /jobs/nope = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPSaturationReturns429 drives the queue to its bound and
// checks the load-shedding contract: 429 plus Retry-After.
func TestHTTPSaturationReturns429(t *testing.T) {
	plan := faultinject.MustNew(3, faultinject.Rule{
		Point: faultinject.PointExplorePath, Action: faultinject.ActSleep, SleepMS: 50,
	})
	m, srv := newTestServer(t, Config{Workers: 1, QueueCap: 2, Fault: plan})
	body, _ := json.Marshal(Request{Source: progs.Philosophers(3)})
	first, v := postJob(t, srv, string(body))
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d", first.StatusCode)
	}
	waitState(t, m, v.ID, StateRunning)
	for i := 0; i < 2; i++ {
		resp, _ := postJob(t, srv, string(body))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d = %d", i, resp.StatusCode)
		}
	}
	resp, _ := postJob(t, srv, string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	// The header is computed from queue depth and drain rate, floored
	// at one second — never zero, never garbage.
	secs, err := strconv.ParseInt(ra, 10, 64)
	if err != nil || secs < 1 || secs > maxRetryAfterSeconds {
		t.Errorf("Retry-After = %q, want an integer in [1,%d]", ra, maxRetryAfterSeconds)
	}
}

func TestHTTPCancel(t *testing.T) {
	plan := faultinject.MustNew(3, faultinject.Rule{
		Point: faultinject.PointExplorePath, Action: faultinject.ActSleep, SleepMS: 20,
	})
	m, srv := newTestServer(t, Config{Workers: 1, Fault: plan})
	body, _ := json.Marshal(Request{Source: progs.Philosophers(3)})
	_, v := postJob(t, srv, string(body))
	waitState(t, m, v.ID, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	got := waitState(t, m, v.ID, StateCancelled)
	if got.State != StateCancelled {
		t.Fatalf("state = %s", got.State)
	}
}

func TestHTTPTraceStream(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal(Request{Source: progs.Philosophers(3), Trace: true})
	_, v := postJob(t, srv, string(body))
	pollDone(t, m, srv, v.ID)
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/trace", srv.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	lines := 0
	for dec.More() {
		var ev map[string]any
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("trace line %d: %v", lines, err)
		}
		lines++
	}
	if lines == 0 {
		t.Error("trace stream is empty")
	}
}

func TestHTTPHealthz(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	drain(t, m)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestHTTPPORModes submits a dynamic-POR job and a default static job for the same deadlocking program: both must
// complete and agree on whether a deadlock exists, the invalid and
// contradictory mode spellings must be rejected at admission, and the
// agreeing no_por + por=off combination must be accepted.
func TestHTTPPORModes(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1})
	src := progs.Philosophers(3)
	for _, req := range []Request{
		{Source: src, POR: "dynamic"},
		{Source: src},
	} {
		body, _ := json.Marshal(req)
		resp, v := postJob(t, srv, string(body))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /jobs (por=%q) = %d, want 202", req.POR, resp.StatusCode)
		}
		got := pollDone(t, m, srv, v.ID)
		if got.Result == nil || got.Result.Deadlocks == 0 {
			t.Fatalf("por=%q: result = %+v, want deadlocks", req.POR, got.Result)
		}
	}
	for _, body := range []string{
		`{"source":"x","por":"bogus"}`,
		`{"source":"x","search":"bogus"}`, // a key priority search took with it
		`{"source":"x","no_por":true,"por":"dynamic"}`,
	} {
		resp, _ := postJob(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /jobs %s = %d, want 400", body, resp.StatusCode)
		}
	}
	resp, _ := postJob(t, srv, `{"source":"x","no_por":true,"por":"off"}`)
	if resp.StatusCode == http.StatusBadRequest {
		t.Errorf("POST /jobs no_por+por=off rejected; the spellings agree")
	}
}

// TestHTTPRejectsUnknownKeys pins admission's strictness: a misspelt key
// would otherwise be dropped and the job run as the search it did not
// ask for — "livenes" as a plain search reporting clean — so POST /jobs
// refuses it with a 400 naming the key, as it does trailing data.
func TestHTTPRejectsUnknownKeys(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	for body, want := range map[string]string{
		`{"source":"x","livenes":true}`: `unknown field "livenes"`,
		`{"source":"x"} {"source":"y"}`: "data after the document",
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(doc.Error, want) {
			t.Errorf("POST /jobs %s = %d %q (%v), want 400 saying %s", body, resp.StatusCode, doc.Error, err, want)
		}
	}
}
