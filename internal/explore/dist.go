package explore

// Distribution: the search driver with workers that explore nothing
// themselves. A slice worker claims units from the frontier like any
// worker and has its Slicer explore them somewhere else — another process
// (internal/dist), or this one in a test — as one bounded slice. The wire
// format is the checkpoint Snapshot: a batch is a snapshot with zero
// counters and a unit list, a result is the snapshot of the slice's
// report, so distribution inherits the checkpoint format's versioning,
// validation and fuzz coverage, and everything the driver does for an
// engine — budget, stop, pause-in-place checkpoints, progress, events —
// it does for a slice worker.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"reclose/internal/cfg"
)

// Slicer explores batches of work units on behalf of one slice worker,
// one at a time.
type Slicer interface {
	// Slice resumes batch — a snapshot of zero counters and the units to
	// explore — under a budget of that many states (Resume with MaxStates:
	// budget and the search's options), and returns the slice report's
	// WireSnapshot, whose Units are what the slice left unexplored, with
	// the report's Cause. When ctx ends there is nothing left to wait for.
	// ErrSliceLost says no result will come and the batch is as it was;
	// any other error ends the search.
	Slice(ctx context.Context, batch *Snapshot, budget int64) (result *Snapshot, cause StopCause, err error)
}

// ErrSliceLost is a Slicer's report of a slice that produced nothing: its
// units go back on the frontier unchanged.
var ErrSliceLost = errors.New("explore: slice lost")

// batchUnits caps the units of one batch.
const batchUnits = 16

// Distribute runs the search of u under opt with one slice worker per
// Slicer in place of engines, from the resume snapshot if there is one.
// A slice's budget is sliceStates states, or what is left of MaxStates.
// opt.Workers and what else only an engine reads are the Slicers'
// business; the report's Workers is their number. The report obeys the
// contracts of an in-process search, with the allowance a resumed one
// has: Replays and ReplaySteps count the unit prefixes slices re-replay.
func Distribute(ctx context.Context, u *cfg.Unit, resume *Snapshot, opt Options, slicers []Slicer, sliceStates int64) (*Report, error) {
	if len(slicers) == 0 || sliceStates <= 0 {
		return nil, fmt.Errorf("explore: Distribute needs a Slicer and a positive slice budget (have %d, %d)", len(slicers), sliceStates)
	}
	opt, err := opt.Resolve()
	if err != nil {
		return nil, err
	}
	var restored *restoredState
	if resume != nil {
		if restored, err = restoreSnapshot(u, resume); err != nil {
			return nil, err
		}
	}
	opt.Workers = len(slicers)
	return search(ctx, u, opt, restored, &distribution{slicers: slicers, sliceStates: sliceStates}, true)
}

// WireSnapshot serializes a finalized report plus its pending units as
// a Snapshot. Unlike Report.Snapshot it also works for a complete
// report — the Units list is simply empty — which is what a Slicer
// returns for a slice it finished. It returns nil for reports that did
// not come out of this package's merge layer (no program identity
// attached), e.g. a zero Report.
func (r *Report) WireSnapshot() *Snapshot {
	if r.cov == nil {
		return nil
	}
	return buildSnapshot(r, r.pending)
}

// distribution is what the slice workers of one search share.
type distribution struct {
	slicers     []Slicer
	sliceStates int64

	// ctx ends the slices in flight when the search stops.
	ctx   context.Context
	u     *cfg.Unit
	sites *siteTable
	met   *exploreMetrics
}

// start makes slice workers of the search's workers, and shared.abort
// what ends their slices.
func (d *distribution) start(ctx context.Context, u *cfg.Unit, sites *siteTable, shared *sharedState, met *exploreMetrics, workers []*worker) {
	d.ctx, shared.abort = context.WithCancel(ctx)
	d.u, d.sites, d.met = u, sites, met
	for i, w := range workers {
		w.slicer, w.dist = d.slicers[i], d
		w.partial = partial{rep: &Report{}, covered: newCoverage(sites)}
	}
}

// ship is the slice worker's loop: claim a batch of units, reserve its
// state budget, have the Slicer explore it, fold the result into the
// worker's partial report, push what the slice left over and retire the
// batch. The claim is the lease: a result is merged if Slice returned it,
// the units are put back if it returned an error, and it returns once.
// The worker yields between slices, so a pause waits for the one in
// flight, and a stop ends it through the slices' context.
func (w *worker) ship() {
	d := w.dist
	for {
		select {
		case <-w.cancelled:
			w.shared.requestStop(StopCancelled)
		default:
		}
		batch := w.claimBatch()
		if batch == nil {
			return
		}
		budget, spent := w.shared.reserve(d.sliceStates)
		if budget == 0 {
			// The slices in flight hold what is left of MaxStates and go
			// on with what they credit; with none, the search is cut.
			w.requeue(batch)
			if spent {
				w.shared.requestStop(StopMaxStates)
			}
			return
		}
		w.units += int64(len(batch))
		t0 := time.Now()
		result, cause, err := w.slicer.Slice(d.ctx, d.batch(batch), budget)
		w.busy += time.Since(t0)
		var rs *restoredState
		if err == nil {
			// Validated before anything of it counts: a result the merge
			// refuses is as deterministic as a refused batch.
			if rs, err = restoreSnapshot(d.u, result); err != nil {
				err = fmt.Errorf("explore: slice result: %w", err)
			}
		}
		if err != nil {
			w.shared.credit(budget, 0)
			w.requeue(batch)
			if !errors.Is(err, ErrSliceLost) {
				w.shared.fail(err)
				return
			}
			continue
		}
		w.fold(rs.partial)
		d.met.addRestored(rs.rep)
		w.shared.notePaths(rs.rep.Paths)
		for _, u := range rs.units {
			w.f.push(w.id, u)
		}
		w.shared.credit(budget, rs.rep.States)
		w.retire(batch)
		if cause == StopViolation || cause == StopIncident {
			w.shared.requestStop(cause)
		}
	}
}

// claimBatch claims up to batchUnits units — blocking for the first, as
// the frontier hands them out: a worker's newest first — and lists them
// oldest first, the order a checkpoint lists a frontier in and Resume
// seeds one from. It returns nil when claim does.
func (w *worker) claimBatch() []*workUnit {
	u := w.f.claim(w.id)
	if u == nil {
		return nil
	}
	batch := []*workUnit{u}
	for len(batch) < batchUnits {
		if u = w.f.take(w.id); u == nil {
			break
		}
		batch = append(batch, u)
	}
	slices.Reverse(batch)
	return batch
}

// requeue puts a claimed batch back on the frontier as it was.
func (w *worker) requeue(batch []*workUnit) {
	for _, u := range batch {
		w.f.push(w.id, u)
	}
	w.retire(batch)
}

// retire retires the claims of a batch.
func (w *worker) retire(batch []*workUnit) {
	for range batch {
		w.f.done()
	}
}

// batch packages units as the snapshot a slice resumes: program identity
// for validation on the far side, zero counters (the result's counters
// are then a pure delta), and the units.
func (d *distribution) batch(units []*workUnit) *Snapshot {
	s := &Snapshot{
		Version:   SnapshotVersion,
		Processes: len(d.u.Processes),
		SiteBits:  d.sites.bits,
		Units:     make([]snapUnit, len(units)),
	}
	for i, u := range units {
		s.Units[i] = d.sites.snapFromUnit(u)
	}
	return s
}
