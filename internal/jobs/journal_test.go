package jobs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reclose/internal/faultinject"
)

func testRecord(id string, seq uint64, state State) *record {
	return &record{
		V:     recordVersion,
		ID:    id,
		Req:   Request{Source: "int main() { return 0; }"},
		State: state,
		Seq:   seq,
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jn, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range []State{StateQueued, StateRunning, StateDone} {
		rec := testRecord(string(rune('a'+i)), uint64(i), st)
		if err := jn.save(rec); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	// A request key this version does not know — refused at admission
	// (ParseRequest) — still recovers from the journal.
	if err := os.WriteFile(filepath.Join(jn.dir, "old.json"), []byte(`{"v":1,"id":"old","seq":3,"state":"queued","req":{"source":"x","retired":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, corrupt, err := jn.load()
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 0 {
		t.Fatalf("corrupt = %v, want none", corrupt)
	}
	if len(recs) != 4 {
		t.Fatalf("loaded %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i) {
			t.Errorf("record %d: seq %d (not sorted)", i, rec.Seq)
		}
	}
}

func TestJournalQuarantinesCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	jn, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.save(testRecord("good", 1, StateQueued)); err != nil {
		t.Fatal(err)
	}
	// Torn JSON, a future version, and a temp dropping.
	os.WriteFile(filepath.Join(jn.dir, "torn.json"), []byte(`{"v":1,"id":"to`), 0o644)
	future, _ := json.Marshal(&record{V: recordVersion + 1, ID: "future", Seq: 2})
	os.WriteFile(filepath.Join(jn.dir, "future.json"), future, 0o644)
	os.WriteFile(filepath.Join(jn.dir, "x.json.tmp123"), []byte("junk"), 0o644)

	recs, corrupt, err := jn.load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "good" {
		t.Fatalf("recs = %v, want just good", recs)
	}
	if len(corrupt) != 2 {
		t.Fatalf("corrupt = %v, want 2 entries", corrupt)
	}
	// Quarantined, not deleted.
	entries, _ := os.ReadDir(jn.dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "torn.json.corrupt") || !strings.Contains(joined, "future.json.corrupt") {
		t.Errorf("quarantine files missing: %v", names)
	}
	if strings.Contains(joined, "tmp123") {
		t.Errorf("temp dropping not removed: %v", names)
	}
}

func TestJournalInjectedWriteFailureKeepsOldRecord(t *testing.T) {
	dir := t.TempDir()
	plan := faultinject.MustNew(1, faultinject.Rule{
		Point:  faultinject.PointJournalWrite,
		Action: faultinject.ActError,
		After:  1, // first save succeeds, second fails
		Count:  1,
	})
	jn, err := openJournal(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("j1", 1, StateQueued)
	if err := jn.save(rec); err != nil {
		t.Fatalf("first save: %v", err)
	}
	rec.State = StateRunning
	if err := jn.save(rec); !faultinject.IsInjected(err) {
		t.Fatalf("second save err = %v, want injected", err)
	}
	// The first version survives untouched.
	recs, _, err := jn.load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].State != StateQueued {
		t.Fatalf("after failed write: recs = %+v, want the queued version", recs)
	}
}

func TestJournalDelete(t *testing.T) {
	dir := t.TempDir()
	jn, _ := openJournal(dir, nil)
	jn.save(testRecord("gone", 1, StateDone))
	if err := jn.delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := jn.delete("gone"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	recs, _, _ := jn.load()
	if len(recs) != 0 {
		t.Fatalf("recs = %v after delete", recs)
	}
}
