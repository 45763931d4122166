package explore

import (
	"context"
	"sync"
	"time"

	"reclose/internal/cfg"
	"reclose/internal/interp"
	"reclose/internal/statecache"
)

// worker is one search worker, claiming work units from the frontier. It
// comes in two kinds, which differ in the loop they run and nowhere else:
// an engine worker explores the units it claims on a private machine; a
// slice worker (dist.go) has a Slicer explore them somewhere else.
type worker struct {
	id     int
	f      *frontier
	shared *sharedState
	// cancelled is the search context's Done channel, polled between
	// paths and between slices.
	cancelled <-chan struct{}

	// partial is the worker's share of the result so far: its engine's, or
	// the slice results a slice worker has folded in.
	partial
	// left is what the worker held unexplored when it last returned to the
	// driver: the rest of the unit its engine is in. A slice worker comes
	// back between slices, holding nothing.
	left []*workUnit

	eng *engine // the engine worker's DFS core over its private machine
	// inUnit says the engine holds a claimed unit that is not retired:
	// its stack is the unit's unexplored remainder. A worker that returns
	// to the driver with it set continues the unit when run again.
	inUnit bool

	// A slice worker's transport, and what the slice workers of the
	// search share.
	slicer Slicer
	dist   *distribution

	units int64
	busy  time.Duration
}

// run is the worker's loop, until the search is over or a flag is up.
func (w *worker) run() {
	if w.eng != nil {
		w.explore()
	} else {
		w.ship()
	}
}

// search is the one search driver. max(1, Workers) workers share one
// frontier and one sharedState; Workers: 0 runs the single worker's loop
// inline on the caller's goroutine, without spilling, so the whole tree
// stays one root unit explored by plain backtracking in the classic
// order. With a distribution the workers are
// slice workers, one per Slicer, instead of engines.
//
// Workers run until the frontier is exhausted or a flag sends them back:
// stop (cancellation, timeout, budget, stop-on-incident) ends the
// search, pause means a checkpoint is due. Either way every engine comes
// back at a path boundary, or cut at a fresh state it has not counted,
// with its stack, its machine's trail and claimed unit as they stood — and
// every slice worker between slices — so what is left of the search can
// be read off the workers and the frontier without disturbing them: a
// checkpoint is that read, after which the same workers are started
// again. With traces, each sample's is replayed from its decisions (rebuildTraces).
func search(ctx context.Context, u *cfg.Unit, opt Options, restored *restoredState, dist *distribution, traces bool) (*Report, error) {
	shared := &sharedState{maxStates: opt.MaxStates}
	if opt.Checkpoint != nil {
		shared.ckptEveryPaths = opt.CheckpointEveryPaths
	}
	met := newExploreMetrics(opt.Obs)
	met.workers.Set(int64(opt.Workers))
	f := newFrontier(max(1, opt.Workers), shared, met)
	shared.wake = f.wake
	sites := newSiteTable(u)

	// One visited-state set for the whole search (nil without StateCache,
	// and when the exploring is done elsewhere): its sharded mutexes are
	// the only locks the state loop touches.
	var cache *statecache.Cache
	var res *interp.Resolution
	workers := make([]*worker, len(f.shards))
	for i := range workers {
		workers[i] = &worker{id: i, f: f, shared: shared, cancelled: ctx.Done()}
	}
	if dist != nil {
		dist.start(ctx, u, sites, shared, met, workers)
		defer shared.abort() // releases the slices' context
	} else {
		cache = newStateCache(opt)
		var err error
		if res, err = startEngines(u, opt, sites, cache, met, workers); err != nil {
			return nil, err
		}
	}
	met.emitRunStart(opt, restored != nil, dist != nil)

	acc := newAccum(opt, sites, len(u.Processes))
	seed := []*workUnit{{root: true}}
	if restored != nil {
		acc.fold(restored.partial)
		met.addRestored(restored.rep)
		met.emitResume(restored)
		seed = restored.units
		// Preload the shared counters with the restored totals so the
		// MaxStates budget and the path-based checkpoint cadence see
		// whole-search numbers. The final report is built from the
		// accumulator, not these counters, so nothing is double-counted.
		shared.states.Store(restored.rep.States)
		shared.published.Store(restored.rep.States)
		shared.paths.Store(restored.rep.Paths)
	}
	for i, un := range seed {
		f.push(i, un)
	}

	start := time.Now()
	stopWatch := startWatch(ctx, opt, shared)
	for {
		if opt.Workers == 0 {
			workers[0].run()
		} else {
			var wg sync.WaitGroup
			for _, w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.run()
				}()
			}
			wg.Wait()
		}
		if shared.stopped() || !shared.pause.Load() {
			break
		}
		snap := checkpoint(acc, f, workers, cache)
		met.emitCheckpoint(snap)
		opt.Checkpoint(snap)
		shared.clearPause()
	}
	stopWatch()
	if shared.failure != nil {
		return nil, shared.failure
	}

	wall := time.Since(start)
	stats := make([]WorkerStat, len(workers))
	for i, w := range workers {
		acc.fold(w.partial)
		stats[i] = WorkerStat{Units: w.units, States: w.rep.States, Paths: w.rep.Paths, Busy: w.busy}
		if wall > 0 {
			stats[i].Utilization = float64(w.busy) / float64(wall)
		}
	}
	rep := acc.finalize(opt.Workers, stats)
	rep.cacheSum = cacheSnap(cache)
	met.noteCacheStats(opt.Obs, cache)
	cause, pending := shared.cause(), remainder(f, workers)
	if (cause == StopCancelled || cause == StopTimeout) && len(pending) == 0 {
		// The cancellation or timeout landed after the last path: it cut
		// nothing, and the search is complete.
		cause = StopNone
	}
	if cause != StopNone {
		rep.Incomplete = true
		rep.Cause = cause
		rep.pending = pending
		met.emitTruncation(cause, rep)
	}
	met.noteWorkerStats(opt.Obs, stats)
	met.emitRunStop(rep, wall)
	if traces {
		rebuildTraces(u, res, rep.Samples)
	}
	return rep, nil
}

// startEngines makes engine workers of the search's workers. The unit is
// resolved once — slot assignment and code compilation are immutable —
// and each worker gets a private machine instantiated from the shared
// Resolution, which it returns.
func startEngines(u *cfg.Unit, opt Options, sites *siteTable, cache *statecache.Cache, met *exploreMetrics, workers []*worker) (*interp.Resolution, error) {
	res, err := interp.Resolve(u)
	if err != nil {
		return nil, err
	}
	fps := footprints(u)
	// One segment table for the search — machines are copied between its
	// engines, ids and all — and the cache's own when there is one: a
	// cache the caller supplied outlives the search.
	var segs interp.SegmentTable
	if cache != nil {
		segs = cache.Segments()
	} else if opt.Liveness {
		segs = new(statecache.Segments)
	}
	for i, w := range workers {
		m, err := newMachine(res, opt)
		if err != nil {
			return nil, err
		}
		eng := newEngine(m, opt, fps, sites, w.shared)
		eng.cache, eng.segs, eng.met = cache, segs, met
		if opt.Workers > 0 {
			// The inline search never spills: backtracking alone
			// preserves the classic order.
			eng.spill = func(u *workUnit) { w.f.push(i, u) }
		}
		w.eng, w.partial = eng, eng.partial
	}
	met.noteEngine(opt, res)
	return res, nil
}

// remainder lists the unexplored part of a search whose workers have all
// returned: the unclaimed frontier, then what each worker came back
// holding.
func remainder(f *frontier, workers []*worker) []*workUnit {
	units := f.contents()
	for _, w := range workers {
		units = append(units, w.left...)
	}
	return units
}

// checkpoint assembles a snapshot of a paused search: the accumulator
// (restored totals) plus every worker's live partial report, and the
// remainder. Nothing it reads is changed.
func checkpoint(a *accum, f *frontier, workers []*worker, cache *statecache.Cache) *Snapshot {
	c := a.clone()
	for _, w := range workers {
		c.fold(w.partial)
	}
	rep := c.finalize(0, nil)
	rep.cacheSum = cacheSnap(cache)
	return buildSnapshot(rep, remainder(f, workers))
}

// startWatch launches the search's watcher, which forwards the timed and
// external sources — context cancellation, Options.Timeout, the
// Options.CheckpointEvery ticker — into the shared flags. The returned
// function stops it.
func startWatch(ctx context.Context, opt Options, shared *sharedState) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var timeout, tick <-chan time.Time
		if opt.Timeout > 0 {
			t := time.NewTimer(opt.Timeout)
			defer t.Stop()
			timeout = t.C
		}
		if opt.Checkpoint != nil && opt.CheckpointEvery > 0 {
			t := time.NewTicker(opt.CheckpointEvery)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				shared.requestStop(StopCancelled)
				return
			case <-timeout:
				shared.requestStop(StopTimeout)
				return
			case <-tick:
				shared.requestPause()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// explore is the engine worker's loop: claim a unit, explore its subtree
// path by path, retire it. It returns when the search is over or a flag
// is up; the engine keeps whatever unit it was exploring, and running the
// worker again continues from there.
func (w *worker) explore() {
	e := w.eng
	t0 := time.Now() // start of the current stretch of work on a unit
loop:
	for {
		// The watcher forwards a cancellation too, but only once it gets
		// to run; a cancel issued on this goroutine — from OnLeaf or
		// Checkpoint — must not cost a scheduler time slice of search.
		select {
		case <-w.cancelled:
			e.shared.requestStop(StopCancelled)
		default:
		}
		if e.shared.yielding() {
			break
		}
		switch {
		case !w.inUnit:
			u := w.f.claim(w.id)
			if u == nil {
				break loop
			}
			t0 = time.Now()
			// Claim-splitting: hand the remaining sibling options straight
			// back — for other workers to start on, and so that every
			// sibling subtree is exactly one unit — and explore
			// options[from] only.
			if u.rest() {
				w.f.push(w.id, u.split())
			}
			e.prepareUnit(u)
			w.inUnit = true
			w.units++
		case e.backtrack():
			e.rep.Replays++
		default:
			// The unit is done: publish what it counted, and give back
			// the reservation's rest, which an engine waiting in
			// reserve would otherwise wait on while this one waits for
			// a unit.
			e.publish()
			e.settle()
			w.busy += time.Since(t0)
			w.inUnit = false
			w.f.done()
			continue
		}
		e.runPathSafe()
		if e.sincePub++; e.sincePub == tallyBatch {
			e.publish()
		}
	}
	if w.inUnit {
		w.busy += time.Since(t0)
	}
	// Back to the driver — the search ends, stops or pauses: everything
	// counted is published, and the reservation's rest given back.
	e.publish()
	e.settle()
	w.left = e.residualUnits()
}
