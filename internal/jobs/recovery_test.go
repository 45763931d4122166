package jobs

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"reclose/internal/faultinject"
	"reclose/internal/obs"
	"reclose/internal/progs"
)

// baselineResult runs the reference job once, uninterrupted, on a
// clean manager.
func baselineResult(t *testing.T, req *Request) *Result {
	t.Helper()
	m, err := Open(Config{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return waitState(t, m, v.ID, StateDone).Result
}

// sampleMultiset projects incident samples to a sorted kind/depth
// multiset: slicing and crash recovery may reorder discovery but must
// surface the same incidents.
func sampleMultiset(rs []IncidentSummary) []string {
	out := make([]string, 0, len(rs))
	for _, s := range rs {
		out = append(out, s.Kind)
	}
	sort.Strings(out)
	return out
}

func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCrashRecoveryEquivalence is the PR's acceptance test: across 50
// seeded fault-injection iterations, a manager killed mid-job (the
// in-process SIGKILL equivalent: journal writes suppressed, all
// goroutines torn down) restarts, resumes the job from its last
// persisted checkpoint, and finishes with a final Report whose
// counters match an uninterrupted run — same incident multiset — with
// zero journal corruption.
//
// The per-seed fault plan stays counter-neutral inside the search
// (sleep only at explore.path — an injected panic there would add an
// internal-error incident a clean run doesn't have) and throws
// worker-attempt panics and checkpoint-write failures at the jobs
// layer, where retry and keep-last-checkpoint must absorb them.
func TestCrashRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("50 crash/restart iterations; skipped in -short")
	}
	req := &Request{Source: progs.Philosophers(3)}
	want := baselineResult(t, req)
	wantSamples := sampleMultiset(want.Samples)

	for seed := uint64(0); seed < 50; seed++ {
		dir := t.TempDir()
		mk := func(stall bool) *Manager {
			rules := []faultinject.Rule{
				{Point: faultinject.PointWorkerAttempt, Action: faultinject.ActPanic, Prob: 0.25, Msg: "storm"},
				{Point: faultinject.PointCheckpointSave, Action: faultinject.ActError, Prob: 0.3},
			}
			if stall {
				// Slow the first life's search so the kill lands mid-job.
				rules = append(rules, faultinject.Rule{
					Point: faultinject.PointExplorePath, Action: faultinject.ActSleep, SleepMS: 1,
				})
			}
			m, err := Open(Config{
				DataDir:              dir,
				Workers:              1,
				MaxAttempts:          1000,
				CheckpointEveryPaths: 1 + int64(seed%5),
				Backoff:              Backoff{Base: time.Millisecond, Cap: 3 * time.Millisecond, Seed: seed},
				Fault:                faultinject.MustNew(int64(seed), rules...),
			})
			if err != nil {
				t.Fatalf("seed %d: open: %v", seed, err)
			}
			return m
		}

		m := mk(true)
		v, err := m.Submit(req)
		if err != nil {
			t.Fatalf("seed %d: submit: %v", seed, err)
		}
		// Let it get somewhere — a seed-varied slice of the search —
		// then kill it cold.
		time.Sleep(time.Duration(10+seed*3) * time.Millisecond)
		m.Kill()

		m2 := mk(false)
		got := waitState(t, m2, v.ID, StateDone)
		if !sameResult(got.Result, want) {
			t.Errorf("seed %d: resumed result = %+v, want %+v", seed, got.Result, want)
		}
		if !sameMultiset(sampleMultiset(got.Result.Samples), wantSamples) {
			t.Errorf("seed %d: incident multiset %v, want %v",
				seed, sampleMultiset(got.Result.Samples), wantSamples)
		}
		drain(t, m2)

		// Zero journal corruption: no record was ever torn.
		if corrupt, _ := filepath.Glob(filepath.Join(dir, "jobs", "*.corrupt")); len(corrupt) != 0 {
			t.Fatalf("seed %d: journal corruption: %v", seed, corrupt)
		}
	}
}

// TestRecoveryRequeuesJournaledStates: jobs persisted as queued,
// running (with checkpoint), and wait-retry all come back; terminal
// jobs stay terminal.
func TestRecoveryRequeuesJournaledStates(t *testing.T) {
	dir := t.TempDir()
	jn, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := progs.Philosophers(3)
	mkRec := func(id string, seq uint64, st State) *record {
		return &record{V: recordVersion, ID: id, Req: Request{Source: src}, State: st, Seq: seq}
	}
	for _, rec := range []*record{
		mkRec("j000001", 1, StateQueued),
		mkRec("j000002", 2, StateRunning),
		mkRec("j000003", 3, StateWaitRetry),
		mkRec("j000004", 4, StateDone),
		mkRec("j000005", 5, StateCancelled),
	} {
		if err := jn.save(rec); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.New()
	m, err := Open(Config{DataDir: dir, Workers: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)
	for _, id := range []string{"j000001", "j000002", "j000003"} {
		got := waitState(t, m, id, StateDone)
		if got.Result == nil {
			t.Errorf("%s: no result after recovery", id)
		}
	}
	if v, _ := m.Get("j000004"); v.State != StateDone {
		t.Errorf("terminal done job re-run: %s", v.State)
	}
	if v, _ := m.Get("j000005"); v.State != StateCancelled {
		t.Errorf("terminal cancelled job re-run: %s", v.State)
	}
	if n := reg.Counter(MetricRecovered).Load(); n != 3 {
		t.Errorf("recovered counter = %d, want 3", n)
	}
	// New submissions get fresh IDs above the journaled Seq range.
	v, err := m.Submit(&Request{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID <= "j000005" {
		t.Errorf("new job ID %s collides with journaled range", v.ID)
	}
}

// TestRecoveryQuarantineCountsMetric: a corrupt record on disk is
// quarantined at boot and counted, and the rest of the journal loads.
func TestRecoveryQuarantineCountsMetric(t *testing.T) {
	dir := t.TempDir()
	jn, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.save(&record{V: recordVersion, ID: "ok", Req: Request{Source: progs.Philosophers(3)}, State: StateDone, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := writeRaw(filepath.Join(dir, "jobs", "torn.json"), `{"v":1,"id":"to`); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	m, err := Open(Config{DataDir: dir, Workers: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)
	if n := reg.Counter(MetricJournalCorrupt).Load(); n != 1 {
		t.Errorf("journal_corrupt = %d, want 1", n)
	}
	if _, ok := m.Get("ok"); !ok {
		t.Error("healthy record lost next to a corrupt one")
	}
}

// TestRecoveryRunsPrioritySearchRecord boots a data directory written
// before priority search was deleted: a running job whose request says
// "search":"priority" and whose checkpoint's units carry the "score"
// keys that search ranked them by (testdata/priority-search-record.json,
// cut at 60 states). Recovery neither quarantines the record nor drops
// the checkpoint: the unknown keys are ignored, the job resumes under
// the one frontier order, and it ends with the incidents of the same job
// run from scratch.
func TestRecoveryRunsPrioritySearchRecord(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "priority-search-record.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jn, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRaw(jn.path("j000001"), string(data)); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	m, err := Open(Config{DataDir: dir, Workers: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)
	got := waitState(t, m, "j000001", StateDone)
	if n := reg.Counter(MetricJournalCorrupt).Load(); n != 0 {
		t.Errorf("journal_corrupt = %d, want 0", n)
	}
	if got.Resumes != 1 {
		t.Errorf("resumes = %d, want 1 (the checkpoint was dropped)", got.Resumes)
	}
	want := baselineResult(t, &Request{Source: progs.Philosophers(3)})
	r := got.Result
	if r == nil || !r.Complete || r.Deadlocks != want.Deadlocks || r.Terminated != want.Terminated ||
		r.Incidents != want.Incidents || !sameMultiset(sampleMultiset(r.Samples), sampleMultiset(want.Samples)) {
		t.Errorf("recovered result = %+v\nwant the incidents of %+v", r, want)
	}
}

// writeRaw drops raw bytes at a path (test corruption helper).
func writeRaw(path, data string) error {
	return os.WriteFile(path, []byte(data), 0o644)
}
