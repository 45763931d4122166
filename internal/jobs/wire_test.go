package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestJournalRecordWire pins the journal record encoding byte for byte:
// a data directory written by one version must boot on the next. The
// job has a checkpoint, a result and an error; the record is written the
// way every job mutation writes it, and the job must boot back from it.
func TestJournalRecordWire(t *testing.T) {
	dir := t.TempDir()
	jn, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{}
	j.ID, j.State, j.Seq = "j000007", StateFailed, 7
	j.Req = Request{Source: "process p() { halt; }", Priority: 3, MaxStates: 500, POR: "dynamic"}
	j.Attempts, j.Retries, j.Resumes, j.BackoffLevel = 3, 2, 1, 2
	j.Checkpoint = []byte(`{"version": 1, "processes": 1, "site_bits": 4, "counters": {"states": 9, "max_depth": 2}}`)
	j.CheckpointStates = 9
	j.Result = &Result{
		States: 9, Transitions: 8, Paths: 3, MaxDepth: 2, Terminated: 2, Deadlocks: 1, RedCut: 1,
		Incidents: 1, OpsCovered: 4, OpsTotal: 5, Cause: "max-states",
		Samples: []IncidentSummary{{Kind: "deadlock", Msg: "all blocked", Depth: 2}},
	}
	j.Error = "attempt 3: worker panic"
	m := &Manager{jn: jn, stateWake: make(chan struct{})}
	if err := m.save(j); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jn.path(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := json.Indent(&want, []byte(journalRecordWireGolden), "", "  "); err != nil {
		t.Fatalf("golden: %v", err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		json.Compact(&got, data)
		t.Errorf("journal record encoding changed:\n got %s\nwant %s", got.Bytes(), journalRecordWireGolden)
	}

	booted, err := Open(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, booted)
	v, ok := booted.Get(j.ID)
	if !ok || v.State != StateFailed || v.Priority != 3 || v.Attempts != 3 || v.Resumes != 1 ||
		v.CheckpointStates != 9 || v.Error != j.Error || v.Result == nil || v.Result.Samples[0] != j.Result.Samples[0] {
		t.Errorf("booted job = %+v, want the journaled one", v)
	}
	booted.mu.Lock()
	ckpt := booted.jobs[j.ID].Checkpoint
	booted.mu.Unlock()
	var gotCkpt, wantCkpt bytes.Buffer
	json.Compact(&gotCkpt, ckpt)
	json.Compact(&wantCkpt, j.Checkpoint)
	if !bytes.Equal(gotCkpt.Bytes(), wantCkpt.Bytes()) {
		t.Errorf("booted checkpoint = %s, want %s", gotCkpt.Bytes(), wantCkpt.Bytes())
	}
}

// TestRequestSearchKeyRefused pins the refusal of the "search" key,
// which went with priority search: admission names the key instead of
// running a search the request did not ask for.
func TestRequestSearchKeyRefused(t *testing.T) {
	const want = `jobs: malformed request: json: unknown field "search"`
	for _, body := range []string{
		`{"source":"x","search":"priority"}`,
		`{"source":"x","search":"dfs"}`,
	} {
		if _, err := ParseRequest([]byte(body)); err == nil || err.Error() != want {
			t.Errorf("ParseRequest(%s) = %v, want %q", body, err, want)
		}
	}
}

const journalRecordWireGolden = `{"v":1,"id":"j000007","req":{"source":"process p() { halt; }","priority":3,"max_states":500,"por":"dynamic"},"state":"failed","seq":7,
"attempts":3,"retries":2,"resumes":1,"backoff_level":2,
"checkpoint":{"version":1,"processes":1,"site_bits":4,"counters":{"states":9,"max_depth":2}},"checkpoint_states":9,
"result":{"states":9,"transitions":8,"paths":3,"max_depth":2,"terminated":2,"deadlocks":1,"violations":0,"traps":0,"divergences":0,"liveness_red_searches_cut":1,"depth_hits":0,"sleep_prunes":0,"cache_prunes":0,"internal_errors":0,"incidents":1,"ops_covered":4,"ops_total":5,"complete":false,"cause":"max-states",
 "samples":[{"kind":"deadlock","msg":"all blocked","depth":2}]},
"error":"attempt 3: worker panic"}`
