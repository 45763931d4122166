package explore

// Distributed entry points: the pieces internal/dist needs to move work
// units between processes and fold worker results back through the same
// deterministic merge the in-process driver uses. The wire format is
// the checkpoint Snapshot — a batch is a snapshot with zero counters
// and a unit list; a result is the snapshot of the slice's report — so
// distribution inherits the checkpoint format's versioning, validation,
// and fuzz coverage for free.

import (
	"fmt"

	"reclose/internal/cfg"
)

// WireUnit is the serialized form of one work unit — exactly the
// encoding checkpoints use — exported as an opaque value so the
// distributed layer can hold, batch, and re-ship units without this
// package exposing frontier internals. Units round-trip bit-for-bit:
// decision prefixes, priority scores, and the full dynamic-POR stack
// (backtrack sets, seals) survive the wire.
type WireUnit = snapUnit

// WireSnapshot serializes a finalized report plus its pending units as
// a Snapshot. Unlike Report.Snapshot it also works for a complete
// report — the Units list is simply empty — which is what a worker
// returns for a slice it finished. It returns nil for reports that did
// not come out of this package's merge layer (no program identity
// attached), e.g. a zero Report.
func (r *Report) WireSnapshot() *Snapshot {
	if r.cov == nil {
		return nil
	}
	return buildSnapshot(r, r.pending)
}

// Merger folds worker-slice snapshots through the same accumulator the
// in-process driver uses, so a distributed search's final counters,
// coverage, and incident samples are identical to what one process
// would have produced over the same slices. It is not safe for
// concurrent use; the coordinator's single event loop owns it.
type Merger struct {
	u     *cfg.Unit
	sites *siteTable
	acc   *accum
	met   *exploreMetrics
}

// NewMerger builds a merger for one program under one option set. The
// options must match the ones the workers run (MaxIncidents bounds the
// merged sample list; Obs receives the merged totals).
func NewMerger(u *cfg.Unit, opt Options) *Merger {
	opt = opt.withDefaults()
	sites := newSiteTable(u)
	return &Merger{
		u:     u,
		sites: sites,
		acc:   newAccum(opt, sites, len(u.Processes)),
		met:   newExploreMetrics(opt.Obs),
	}
}

// Root returns the serialized whole-search work unit that seeds a
// distributed frontier, exactly as the in-process driver seeds its own.
func (m *Merger) Root() WireUnit {
	return m.sites.snapFromUnit(&workUnit{root: true})
}

// NewBatch packages a set of frontier units as a batch snapshot for one
// worker slice: program identity for validation on the far side, zero
// counters (the result's counters are then a pure delta), and the
// units.
func (m *Merger) NewBatch(units []WireUnit) *Snapshot {
	return &Snapshot{
		Version:   SnapshotVersion,
		Processes: len(m.u.Processes),
		SiteBits:  m.sites.bits,
		Units:     append([]WireUnit(nil), units...),
	}
}

// Add validates a worker-result snapshot against the program and folds
// its counters, coverage, and incident samples into the merge. The
// snapshot's Units — the slice's unexplored remainder — are NOT
// consumed here; the coordinator returns them to its frontier. Add
// rebuilds incident traces by replay, so merged samples are as complete
// as an in-process run's.
func (m *Merger) Add(snap *Snapshot) error {
	rs, err := restoreSnapshot(m.u, snap)
	if err != nil {
		return err
	}
	m.acc.addRestored(rs)
	m.met.addRestored(rs.rep)
	return nil
}

// States reports the states merged so far — the coordinator's input for
// global MaxStates budgeting.
func (m *Merger) States() int64 {
	return m.acc.rep.States
}

// Paths reports the completed paths merged so far — the coordinator's
// input for CheckpointEveryPaths cadence.
func (m *Merger) Paths() int64 {
	return m.acc.rep.Paths
}

// Checkpoint renders the merged-so-far state plus the given frontier as
// a resumable snapshot — an exact cut: leased-but-unmerged slices must
// be included in pending by the caller, and their partial progress is
// simply re-explored on resume.
func (m *Merger) Checkpoint(pending []WireUnit) *Snapshot {
	c := m.acc.clone()
	rep := c.finalize(0, nil)
	s := buildSnapshot(rep, nil)
	s.Units = append([]WireUnit(nil), pending...)
	return s
}

// Report finalizes the merge. A non-empty pending list or a non-None
// cause marks the report Incomplete, with pending carried so Snapshot
// and WireSnapshot work on it; workers/stats land in the report like a
// parallel run's.
func (m *Merger) Report(pending []WireUnit, cause StopCause, workers int, stats []WorkerStat) (*Report, error) {
	units := make([]*workUnit, 0, len(pending))
	for i := range pending {
		wu, err := m.sites.unitFromSnap(&pending[i], len(m.u.Processes))
		if err != nil {
			return nil, fmt.Errorf("explore: pending unit %d: %w", i, err)
		}
		units = append(units, wu)
	}
	if workers > 0 {
		// The registry's summary line reads the worker-count gauge the
		// in-process driver sets at run start; a distributed merge sets
		// it to the fleet size.
		m.met.workers.Set(int64(workers))
	}
	rep := m.acc.finalize(workers, stats)
	if len(units) > 0 || cause != StopNone {
		rep.Incomplete = true
		rep.Truncated = true
		rep.Cause = cause
		rep.pending = units
		m.met.emitTruncation(cause, rep)
	}
	return rep, nil
}
