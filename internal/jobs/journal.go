package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"reclose/internal/atomicio"
	"reclose/internal/faultinject"
)

// recordVersion is the journal record format version; Load rejects
// records from the future rather than misreading them.
const recordVersion = 1

// record is what a Job persists, and the journal's record of it as
// it stands: everything boot recovery needs to rebuild the job table
// and resume in-flight work. The checkpoint travels as the explore
// snapshot's own JSON, embedded raw.
type record struct {
	V     int     `json:"v"`
	ID    string  `json:"id"`
	Req   Request `json:"req"`
	State State   `json:"state"`
	Seq   uint64  `json:"seq"` // admission order, for FIFO-within-priority and eviction age

	Attempts         int             `json:"attempts,omitempty"`          // attempts started (including the current one)
	Retries          int             `json:"retries,omitempty"`           // transient failures that scheduled a retry
	Resumes          int             `json:"resumes,omitempty"`           // attempts that resumed from a checkpoint
	BackoffLevel     int             `json:"backoff_level,omitempty"`     // current backoff escalation level
	Checkpoint       json.RawMessage `json:"checkpoint,omitempty"`        // encoded explore.Snapshot, nil when none
	CheckpointStates int64           `json:"checkpoint_states,omitempty"` // states recorded in the persisted checkpoint
	Result           *Result         `json:"result,omitempty"`
	Error            string          `json:"error,omitempty"` // terminal error for failed jobs
}

// journal is the crash-safe job store: one JSON file per job under
// <dir>/jobs, every write an atomic replace (write temp, fsync,
// rename, fsync dir — atomicio), so a SIGKILL at any instant leaves
// every record either at its previous version or its next one, never
// torn. Loading quarantines undecodable records as <name>.corrupt
// instead of refusing to boot.
type journal struct {
	dir   string
	fault *faultinject.Plan
}

// openJournal creates the journal directory tree under dataDir.
func openJournal(dataDir string, fault *faultinject.Plan) (*journal, error) {
	dir := filepath.Join(dataDir, "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: journal: %w", err)
	}
	return &journal{dir: dir, fault: fault}, nil
}

func (jn *journal) path(id string) string {
	return filepath.Join(jn.dir, id+".json")
}

// save persists one record atomically. The faultinject hook fires
// before any byte is written, so an injected failure behaves like a
// full disk: the previous record version stays intact.
func (jn *journal) save(rec *record) error {
	if err := jn.fault.Fire(faultinject.PointJournalWrite); err != nil {
		return err
	}
	rec.V = recordVersion
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(jn.path(rec.ID), data, 0o644)
}

// delete removes a job's record (terminal cleanup; missing is fine).
func (jn *journal) delete(id string) error {
	err := os.Remove(jn.path(id))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// load scans the journal directory and decodes every record, sorted by
// admission Seq. Temp droppings from interrupted atomic writes are
// removed; undecodable or wrong-version records are renamed to
// <name>.corrupt and returned by name, never silently dropped and
// never fatal.
func (jn *journal) load() (recs []*record, corrupt []string, err error) {
	entries, err := os.ReadDir(jn.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: journal scan: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.Contains(name, ".json.tmp") {
			// A crash between temp-write and rename: the record it was
			// replacing is still intact, the temp is garbage.
			os.Remove(filepath.Join(jn.dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		full := filepath.Join(jn.dir, name)
		data, rerr := os.ReadFile(full)
		if rerr != nil {
			return nil, nil, fmt.Errorf("jobs: journal read %s: %w", name, rerr)
		}
		var rec record
		if derr := json.Unmarshal(data, &rec); derr != nil || rec.V != recordVersion || rec.ID == "" {
			os.Rename(full, full+".corrupt")
			corrupt = append(corrupt, name)
			continue
		}
		recs = append(recs, &rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs, corrupt, nil
}
