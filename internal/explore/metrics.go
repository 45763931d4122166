package explore

import (
	"fmt"
	"time"

	"reclose/internal/interp"
	"reclose/internal/obs"
	"reclose/internal/statecache"
)

// Registry metric names published by the exploration engine. The
// counters mirror the merged Report exactly: every counter is published
// from the per-engine partial reports (engine.publish: every
// tallyBatch paths, at the end of a unit and whenever the engine
// returns to the driver) and from restored snapshots at resume time, the
// same two sources the report accumulator sums — so at the end of a
// search registry totals and Report counters cannot disagree (TestLattice
// checks this on every cell that sets Obs).
const (
	MetricStates      = "explore.states"
	MetricTransitions = "explore.transitions"
	MetricPaths       = "explore.paths"
	MetricReplays     = "explore.replays"
	MetricReplaySteps = "explore.replay_steps"
	MetricIncidents   = "explore.incidents"
	// Paths begun by an undo, trail entries undone, trails dropped at
	// their bound: cost counters, like explore.replay_steps.
	MetricTrailRestores = "explore.trail.restores"
	MetricTrailUndone   = "explore.trail.undone"
	MetricTrailDrops    = "explore.trail.drops"

	MetricUnitsClaimed   = "explore.units.claimed"
	MetricUnitsSpilled   = "explore.units.spilled"
	MetricUnitsStolen    = "explore.units.stolen"
	MetricClaimsReplay   = "explore.claims.replay"
	MetricClaimsSnapshot = "explore.claims.snapshot"
	MetricCheckpoints    = "explore.checkpoints"
	MetricResumes        = "explore.resumes"

	MetricWorkers          = "explore.workers"
	MetricDepthMax         = "explore.depth.max"
	MetricFrontierQueued   = "explore.frontier.queued.max"
	MetricFrontierInflight = "explore.frontier.inflight.max"

	MetricPathDepth     = "explore.path.depth"
	MetricUnitPrefixLen = "explore.unit.prefix_len"

	// Dynamic-POR counters (POR == dynamic runs only; mirror the
	// Report's Por* fields exactly).
	MetricPorBacktracks    = "explore.por.backtracks"
	MetricPorSleepBlocked  = "explore.por.sleep_blocked"
	MetricPorDynamicPruned = "explore.por.dynamic_pruned"

	// Liveness counters (Options.Liveness runs only; mirror the
	// Report's Livelocks/RedSearches/RedStates/RedCut/RedSteps fields
	// exactly). red_steps is what the red searches cost the machine: a
	// red state the memo knew costs none (cycle.go).
	MetricLivelocks   = "explore.livelocks"
	MetricRedSearches = "explore.liveness.red_searches"
	MetricRedStates   = "explore.liveness.red_states"
	MetricRedCut      = "explore.liveness.red_budget_exhausted"
	MetricRedSteps    = "explore.liveness.red_steps"

	MetricInterpForks  = "interp.forks"
	MetricInterpFrames = "interp.frames"
	// Bytecode-engine instruments: instructions dispatched, StateHash
	// answers served from the incremental rolling hash vs full
	// recomputation walks, fingerprints assembled from key segments and
	// the process segments rendered for them, and the one-time bytecode
	// compile cost.
	MetricInterpInstrs       = "interp.instrs"
	MetricInterpHashIncr     = "interp.hash.incremental"
	MetricInterpHashFull     = "interp.hash.full"
	MetricInterpKeys         = "interp.key.assembled"
	MetricInterpKeySegments  = "interp.key.segments_rendered"
	MetricInterpCompileNanos = "interp.bytecode.compile_ns"

	// State-cache metrics (StateCache runs only): counters mirror
	// statecache.Stats totals, gauges report final occupancy. Published
	// once at the end of a run — the cache keeps its own sharded
	// tallies during the search, so the hot path carries no extra
	// registry traffic. Per-shard occupancy appears as
	// explore.cache.shard.<i>.entries gauges. explore.cache.bytes is what
	// the entries are charged (rendered fingerprints, MaxCacheBytes's
	// denomination); stored_bytes, segments and segment_bytes are what
	// they hold, which depends on the machine.
	MetricCacheHits       = "explore.cache.hits"
	MetricCacheMisses     = "explore.cache.misses"
	MetricCacheInserts    = "explore.cache.inserts"
	MetricCacheReexpands  = "explore.cache.reexpansions"
	MetricCacheEvictions  = "explore.cache.evictions"
	MetricCacheCollisions = "explore.cache.collisions"
	MetricCacheEntries    = "explore.cache.entries"
	MetricCacheBytes      = "explore.cache.bytes"
	MetricCacheStored     = "explore.cache.stored_bytes"
	MetricCacheSegments   = "explore.cache.segments"
	MetricCacheSegBytes   = "explore.cache.segment_bytes"
	MetricCacheShards     = "explore.cache.shards"
)

// cacheShardGaugeLimit caps how many per-shard occupancy gauges are
// published; beyond it only the aggregate gauges appear (a 64k-shard
// cache should not emit 64k metrics rows).
const cacheShardGaugeLimit = 64

// exploreMetrics is the engine's view of an observability registry:
// plain typed instrument pointers, all nil when disabled (every obs
// method is a no-op on a nil receiver). One instance is shared by every
// engine, worker, and frontier of a search.
type exploreMetrics struct {
	on bool

	// mirrors are the counters of mirroredNames, in its order.
	mirrors [nMirrored]*obs.Counter

	unitsClaimed   *obs.Counter
	unitsSpilled   *obs.Counter
	unitsStolen    *obs.Counter
	claimsReplay   *obs.Counter
	claimsSnapshot *obs.Counter
	checkpoints    *obs.Counter
	resumes        *obs.Counter

	workers          *obs.Gauge
	depthMax         *obs.Gauge
	frontierQueued   *obs.Gauge
	frontierInflight *obs.Gauge

	pathDepth     *obs.Histogram
	unitPrefixLen *obs.Histogram

	reg  *obs.Registry
	sink *obs.Sink
}

// noMetrics is the disabled instance every engine starts with: all
// instruments nil, all operations no-ops.
var noMetrics = &exploreMetrics{}

// newExploreMetrics wires an exploreMetrics to a registry; a nil
// registry returns the shared disabled instance.
func newExploreMetrics(reg *obs.Registry) *exploreMetrics {
	if reg == nil {
		return noMetrics
	}
	m := &exploreMetrics{
		on:             true,
		unitsClaimed:   reg.Counter(MetricUnitsClaimed),
		unitsSpilled:   reg.Counter(MetricUnitsSpilled),
		unitsStolen:    reg.Counter(MetricUnitsStolen),
		claimsReplay:   reg.Counter(MetricClaimsReplay),
		claimsSnapshot: reg.Counter(MetricClaimsSnapshot),
		checkpoints:    reg.Counter(MetricCheckpoints),
		resumes:        reg.Counter(MetricResumes),

		workers:          reg.Gauge(MetricWorkers),
		depthMax:         reg.Gauge(MetricDepthMax),
		frontierQueued:   reg.Gauge(MetricFrontierQueued),
		frontierInflight: reg.Gauge(MetricFrontierInflight),

		pathDepth:     reg.Histogram(MetricPathDepth),
		unitPrefixLen: reg.Histogram(MetricUnitPrefixLen),

		reg:  reg,
		sink: reg.Sink(),
	}
	for i, name := range mirroredNames {
		m.mirrors[i] = reg.Counter(name)
	}
	return m
}

// noteEngine publishes which interpreter the search runs on: the
// registry's "engine" label (carried into the metrics JSON), and —
// unless it is the reference, which compiles nothing — the one-time
// bytecode compile cost gauge. Called after the machines are built, so
// the lazily compiled module's time is visible.
func (m *exploreMetrics) noteEngine(opt Options, res *interp.Resolution) {
	if !m.on {
		return
	}
	m.reg.SetLabel("engine", opt.Engine.String())
	if opt.Engine == interp.EngineBytecode {
		m.reg.Gauge(MetricInterpCompileNanos).Set(res.BytecodeCompileNanos())
	}
}

// nMirrored is the number of tallies the registry mirrors, the Report's
// counters and the machine's: mirrored lists them, and mirroredNames
// their counters, in one order.
const nMirrored = 24

var mirroredNames = [nMirrored]string{MetricStates, MetricTransitions, MetricPaths, MetricReplays, MetricReplaySteps, MetricIncidents,
	MetricPorBacktracks, MetricPorSleepBlocked, MetricPorDynamicPruned,
	MetricLivelocks, MetricRedSearches, MetricRedStates, MetricRedCut, MetricRedSteps,
	MetricTrailRestores, MetricTrailUndone, MetricTrailDrops,
	MetricInterpForks, MetricInterpFrames, MetricInterpInstrs, MetricInterpHashIncr, MetricInterpHashFull, MetricInterpKeys, MetricInterpKeySegments}

func mirrored(r *Report, t *interp.Tally) [nMirrored]int64 {
	return [...]int64{r.States, r.Transitions, r.Paths, r.Replays, r.ReplaySteps, r.Incidents(),
		r.PorBacktracks, r.PorSleepBlocked, r.PorDynamicPruned,
		r.Livelocks, r.RedSearches, r.RedStates, r.RedCut, r.RedSteps,
		r.TrailRestores, r.TrailUndone, r.TrailDrops,
		t.Forks, t.Frames, t.Instrs, t.HashIncr, t.HashFull, t.Keys, t.Segs}
}

// metricsCursor is how much of an engine's tallies its last publish
// carried into the registry.
type metricsCursor [nMirrored]int64

// publish adds what the tallies counted since the cursor and advances
// it. Safe to call with the disabled instance.
func (m *exploreMetrics) publish(r *Report, t *interp.Tally, cur *metricsCursor) {
	if !m.on {
		return
	}
	now := mirrored(r, t)
	for i, c := range m.mirrors {
		if d := now[i] - cur[i]; d != 0 {
			c.Add(d)
		}
	}
	*cur = now
	m.depthMax.SetMax(int64(r.MaxDepth))
}

// addRestored folds a restored snapshot's counters in, keeping registry
// totals equal to the accumulator's whole-search numbers across a
// resume.
func (m *exploreMetrics) addRestored(r *Report) {
	if !m.on {
		return
	}
	var zero metricsCursor
	m.publish(r, &interp.Tally{}, &zero)
	m.resumes.Inc()
}

// noteClaim records a claimed work unit: its prefix length, and whether
// reaching its subtree replays the prefix or restores a snapshot (the
// root unit does neither).
func (m *exploreMetrics) noteClaim(u *workUnit) {
	if !m.on {
		return
	}
	m.unitsClaimed.Inc()
	m.unitPrefixLen.Observe(int64(len(u.prefix)))
	switch {
	case u.root:
	case u.snap != nil:
		m.claimsSnapshot.Inc()
	default:
		m.claimsReplay.Inc()
	}
}

// emitRunStart records the run-start event: the resolved options as JSON,
// and the state budget, which that leaves out. distributed says worker
// processes do the exploring (dist.go).
func (m *exploreMetrics) emitRunStart(opt Options, resumed, distributed bool) {
	if m.sink == nil {
		return
	}
	mode := "sequential"
	switch {
	case distributed:
		mode = "distributed"
	case opt.Workers > 0:
		mode = "parallel"
	}
	m.sink.Emit("run_start",
		obs.F("mode", mode),
		obs.F("options", opt),
		obs.F("max_states", opt.MaxStates),
		obs.F("resumed", resumed),
	)
}

// emitRunStop records the run-stop event from the final merged report.
func (m *exploreMetrics) emitRunStop(rep *Report, wall time.Duration) {
	if m.sink == nil {
		return
	}
	m.sink.Emit("run_stop",
		obs.F("cause", rep.Cause.String()),
		obs.F("complete", !rep.Incomplete),
		obs.F("states", rep.States),
		obs.F("transitions", rep.Transitions),
		obs.F("paths", rep.Paths),
		obs.F("incidents", rep.Incidents()),
		obs.F("wall_ms", wall.Milliseconds()),
	)
}

// emitTruncation records why an incomplete search stopped.
func (m *exploreMetrics) emitTruncation(cause StopCause, rep *Report) {
	if m.sink == nil {
		return
	}
	m.sink.Emit("truncation",
		obs.F("cause", cause.String()),
		obs.F("states", rep.States),
		obs.F("paths", rep.Paths),
	)
}

// emitCheckpoint records one checkpoint snapshot.
func (m *exploreMetrics) emitCheckpoint(s *Snapshot) {
	m.checkpoints.Inc()
	if m.sink == nil {
		return
	}
	m.sink.Emit("checkpoint",
		obs.F("units", len(s.Units)),
		obs.F("states", s.Counters.States),
		obs.F("paths", s.Counters.Paths),
	)
}

// emitResume records a restored snapshot seeding the search.
func (m *exploreMetrics) emitResume(rs *restoredState) {
	if m.sink == nil {
		return
	}
	m.sink.Emit("resume",
		obs.F("units", len(rs.units)),
		obs.F("states", rs.rep.States),
		obs.F("paths", rs.rep.Paths),
	)
}

// emitIncident records one interesting path ending (deadlock,
// violation, trap, divergence, or isolated internal error).
func (m *exploreMetrics) emitIncident(kind LeafKind, depth int, msg string) {
	if m.sink == nil {
		return
	}
	m.sink.Emit("incident",
		obs.F("kind", kind.String()),
		obs.F("depth", depth),
		obs.F("msg", msg),
	)
}

// noteWorkerStats publishes per-worker utilization gauges at the end of
// a parallel run and emits one worker event each.
func (m *exploreMetrics) noteWorkerStats(reg *obs.Registry, stats []WorkerStat) {
	if !m.on || reg == nil {
		return
	}
	for i, ws := range stats {
		prefix := fmt.Sprintf("explore.worker.%d.", i)
		reg.Gauge(prefix + "units").Set(ws.Units)
		reg.Gauge(prefix + "states").Set(ws.States)
		reg.Gauge(prefix + "paths").Set(ws.Paths)
		reg.Gauge(prefix + "busy_ms").Set(ws.Busy.Milliseconds())
		if m.sink != nil {
			statesPerSec := 0.0
			if s := ws.Busy.Seconds(); s > 0 {
				statesPerSec = float64(ws.States) / s
			}
			m.sink.Emit("worker",
				obs.F("id", i),
				obs.F("units", ws.Units),
				obs.F("states", ws.States),
				obs.F("paths", ws.Paths),
				obs.F("busy_ms", ws.Busy.Milliseconds()),
				obs.F("states_per_sec", statesPerSec),
			)
		}
	}
}

// noteCacheStats publishes the shared state cache's final statistics —
// hit/miss/insert/eviction counters, occupancy gauges (aggregate plus
// per shard), and one "cache" sink event — at the end of a run. A nil
// cache (StateCache off) publishes nothing.
func (m *exploreMetrics) noteCacheStats(reg *obs.Registry, c *statecache.Cache) {
	if !m.on || reg == nil || c == nil {
		return
	}
	st := c.Stats()
	reg.Counter(MetricCacheHits).Add(st.Hits)
	reg.Counter(MetricCacheMisses).Add(st.Misses)
	reg.Counter(MetricCacheInserts).Add(st.Inserts)
	reg.Counter(MetricCacheReexpands).Add(st.Reexpansions)
	reg.Counter(MetricCacheEvictions).Add(st.Evictions)
	reg.Counter(MetricCacheCollisions).Add(st.Collisions)
	reg.Gauge(MetricCacheEntries).Set(st.Entries)
	reg.Gauge(MetricCacheBytes).Set(st.Bytes)
	reg.Gauge(MetricCacheStored).Set(st.Stored)
	reg.Gauge(MetricCacheSegments).Set(st.Segments)
	reg.Gauge(MetricCacheSegBytes).Set(st.SegmentBytes)
	reg.Gauge(MetricCacheShards).Set(int64(st.Shards))
	if occ := c.ShardOccupancy(); len(occ) <= cacheShardGaugeLimit {
		for i, n := range occ {
			reg.Gauge(fmt.Sprintf("explore.cache.shard.%d.entries", i)).Set(n)
		}
	}
	if m.sink != nil {
		m.sink.Emit("cache",
			obs.F("shards", st.Shards),
			obs.F("entries", st.Entries),
			obs.F("bytes", st.Bytes),
			obs.F("hits", st.Hits),
			obs.F("misses", st.Misses),
			obs.F("reexpansions", st.Reexpansions),
			obs.F("evictions", st.Evictions),
			obs.F("collisions", st.Collisions),
		)
	}
}

// summaryLine formats the canonical one-line run summary shared by
// Report.Summary and RegistrySummary, so the CLI output, the metrics
// file, and the Report render the same numbers the same way.
func summaryLine(states, transitions, paths, incidents int64, workers int, wall time.Duration) string {
	rate := 0.0
	if s := wall.Seconds(); s > 0 {
		rate = float64(transitions) / s
	}
	return fmt.Sprintf("summary: states=%d transitions=%d paths=%d incidents=%d workers=%d wall=%s trans/s=%.0f",
		states, transitions, paths, incidents, workers,
		wall.Round(time.Millisecond), rate)
}

// RegistrySummary renders the one-line run summary from the registry's
// counters — the same counters the engines published during the search —
// so a summary printed from the registry can never disagree with the
// metrics file written from it. The format is identical to
// Report.Summary.
func RegistrySummary(reg *obs.Registry, wall time.Duration) string {
	return summaryLine(
		reg.Counter(MetricStates).Load(),
		reg.Counter(MetricTransitions).Load(),
		reg.Counter(MetricPaths).Load(),
		reg.Counter(MetricIncidents).Load(),
		int(reg.Gauge(MetricWorkers).Load()),
		wall,
	)
}
