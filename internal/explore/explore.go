// Package explore implements VeriSoft-style systematic state-space
// exploration of closed MiniC systems (Godefroid, POPL 1997, as
// summarized in §2 of the paper).
//
// The explorer performs a stateless depth-first search: it stores no
// visited states, and what it keeps of a path is its recorded
// scheduling and VS_toss decisions. VeriSoft backtracks by re-executing
// the run from the initial state, because its processes are real ones
// that cannot be saved; here they are interpreter data, so the engine
// marks the machine's write trail at each decision point and backtracks
// by undoing it to the deepest mark, re-executing one transition
// (restore.go). Search is pruned with partial-order methods — persistent sets computed from
// static object footprints, plus sleep sets — and it detects deadlocks,
// assertion violations, runtime errors, and divergences up to a depth
// bound.
//
// There is one search driver (worker.go) over these layers:
//
//   - engine.go — the stateless DFS core, reaching a work unit's
//     decision point and extending paths depth-first from it. Its entry
//     is the one record of a decision point, and entry.advance the one
//     backtrack step: the live stack's, and a dynamic-POR
//     stack-continuation unit's deep copies of it (dpor.go);
//   - restore.go — the trail marks under the decision stack that let a
//     path start by undoing the last one's writes;
//   - frontier.go — the work unit (a schedule/toss prefix plus its
//     pending sibling choices) and the pool of them: a work-stealing
//     deque per worker;
//   - worker.go — the driver and its workers, each owning a private
//     machine and engine, claiming units, DFS-ing their subtrees, and
//     spilling unexplored sibling subtrees back to the frontier;
//   - stats.go — the state every engine of a search shares (stop and
//     pause flags, budget, live counters) and progress callbacks;
//   - merge.go — deterministic combination of per-engine partial
//     reports into one Report.
//
// Options.Workers sets how the worker loop runs, not which loop: 0 runs
// the single worker inline on the caller's goroutine and never spills a
// depth-first search, so the whole tree is one root unit explored in
// the classic sequential order exactly; N >= 1 runs N workers on their
// own goroutines. Because stateless DFS explores independent
// schedule-prefix subtrees with deterministic replay, the counters
// (states, transitions, paths, replays) of a complete search are
// identical at every worker count, whatever the scheduling.
package explore

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/faultinject"
	"reclose/internal/interp"
	"reclose/internal/obs"
	"reclose/internal/sem"
	"reclose/internal/statecache"
)

// Options configure a search; Resolve decides what they mean. The JSON
// form is what a worker process's slice honours: a field that does not
// cross a process boundary is `json:"-"`.
type Options struct {
	// Engine selects the interpreter executing transitions: the zero
	// value is interp.EngineBytecode, the compiled machine (flat
	// bytecode with incremental state hashing); EngineRef runs the
	// reference interpreter, kept as the machine judge's oracle — it
	// cannot copy its state, so the search replays on it. Both produce
	// byte-identical reports.
	Engine interp.EngineKind `json:"engine"`
	// MaxDepth bounds the number of transitions along one path; 0 means
	// the default (1,000,000).
	MaxDepth int `json:"max_depth"`
	// MaxStates aborts the whole search after visiting this many global
	// states; 0 means unlimited. The report is then marked Incomplete.
	// Engines count states against reservations of the budget, so the
	// final state count never overshoots the bound and a run resumed
	// after a MaxStates cut reaches exactly the totals of an
	// uninterrupted run.
	// Each distributed slice gets its own budget in its batch frame.
	MaxStates int64 `json:"-"`
	// POR selects the partial-order reduction: PORStatic (default)
	// expands persistent sets from static object footprints, PORDynamic
	// runs Flanagan–Godefroid dynamic POR (backtrack points inserted
	// where actual conflicts are observed; typically far fewer
	// transitions on systems whose static footprints over-approximate),
	// POROff expands every enabled process. Static and off preserve the
	// classic deterministic exploration exactly; dynamic guarantees the
	// same incident multiset as the static oracle but explores a
	// different (smaller) tree. See dpor.go and DESIGN.md §14.
	POR PORMode `json:"por"`
	// NoSleep disables sleep sets.
	NoSleep bool `json:"no_sleep"`
	// Liveness enables non-progress cycle (livelock) detection: a
	// nested DFS over the stateful search that reports any reachable
	// cycle executing no progress-labeled visible operation as a
	// LeafLivelock incident with a replayable lasso witness (stem +
	// cycle; Incident.CycleStart marks the split). Progress is declared
	// in MiniC with the `progress` label on a builtin call; a unit with
	// no labels treats every visible operation as progress, so nothing
	// is ever reported and detection is skipped entirely. Liveness
	// needs the strict static oracle, so Resolve refuses it with
	// PORDynamic (reduction can defer cycle-closing transitions past
	// the detector) and with SnapshotSpill (a spilled unit must rebuild
	// the live stack by replay). Static persistent sets and sleep sets
	// stay active and can hide cycles only closable under a pruned
	// interleaving; run with POROff/NoSleep for the exhaustive graph.
	// See cycle.go and DESIGN.md.
	Liveness bool `json:"liveness"`
	// StateCache enables fingerprint-based pruning: a global state whose
	// full fingerprint was already visited at an equal or shallower
	// depth is pruned. VeriSoft itself stores no states; this began as
	// an ablation and is now a production pruning layer backed by
	// internal/statecache: one sharded concurrent set shared by every
	// worker, so it composes with Workers, SnapshotSpill, and
	// checkpoint/resume (cache occupancy is summarized in snapshots,
	// never serialized — a resumed search starts empty and repopulates,
	// which can re-explore subtrees but never lose states). Pruning is
	// sound: entries store full fingerprints (hash collisions route,
	// they never answer), record the shallowest visit depth (a
	// strictly shallower revisit re-expands, so MaxDepth truncation is
	// never hidden), and fold the sleep-set context into the key (two
	// visits are interchangeable only when they would expand the same
	// transitions). Off by default.
	StateCache bool `json:"state_cache"`
	// MaxCacheBytes bounds the state cache's approximate memory
	// (fingerprint bytes plus per-entry overhead, split evenly across
	// the cache's 16 shards); 0 means unbounded. Over budget, entries
	// are evicted clock-wise (second chance). Eviction only degrades
	// pruning — a forgotten state is re-explored on revisit — never
	// soundness.
	MaxCacheBytes int64 `json:"max_cache_bytes"`
	// Cache, when non-nil together with StateCache, is the visited-state
	// set the search uses instead of building its own from
	// MaxCacheBytes. It exists for a caller that runs one search —
	// one program, one option set — as a sequence of Resume slices and
	// passes the same cache to each, so that a state visited in one
	// slice prunes its revisit in a later one: a distributed worker
	// process (internal/dist). A cache entry claims that its state's
	// subtree is covered by the slices so far and the unexplored
	// remainders they reported, so the caller must keep every such
	// slice's report, or drop the cache along with a report it drops.
	Cache *statecache.Cache `json:"-"`
	// MaxIncidents bounds the recorded incident samples: the search keeps
	// the MaxIncidents smallest under (depth, decision sequence, message),
	// the same ones at every worker count; counters are exact
	// regardless. Default 16.
	MaxIncidents int `json:"max_incidents"`
	// OnLeaf, if non-nil, is invoked at the end of every explored path
	// but an internal error's with the leaf kind and the path's decisions
	// (a livelock's lasso), which replay to its trace as a sample's do.
	// The slice is reused; copy it to retain. Calls are serialized under a
	// mutex; with Workers > 1 they come in nondeterministic order.
	OnLeaf func(kind LeafKind, decisions []Decision) `json:"-"`
	// Stop is the cause the search stops with at the first incident it
	// names: StopNone (default) never, StopViolation at an assertion
	// violation or runtime error, StopIncident at any incident but an
	// internal error (ShortestWitness). Resolve refuses the other causes.
	Stop StopCause `json:"stop"`

	// Workers sets how the search's worker loop runs: 0 runs one worker
	// inline on the caller's goroutine — no goroutine of the search
	// executes transitions — without spilling, which preserves the
	// classic sequential exploration order exactly; N >= 1
	// runs N work-stealing workers on their own goroutines; a negative
	// value uses runtime.GOMAXPROCS(0) workers.
	Workers int `json:"workers"`
	// SpillDepth is the scheduling depth above which workers spill
	// unexplored sibling subtrees back to the shared frontier (Workers >
	// 0); deeper siblings are explored in-worker by ordinary
	// backtracking. 0 means the default (16). Spilling is unconditional
	// below the bound, which keeps the set of work units — and hence
	// every merged counter — independent of worker timing.
	SpillDepth int `json:"spill_depth"`
	// SnapshotSpill makes spilled work units carry a forked deep copy of
	// the interpreter state at their decision point. An engine claiming
	// such a unit goes on from a fork of the snapshot whenever no mark
	// of its own is alive (restore.go), instead of re-executing the
	// unit's decision prefix from the initial state, trading memory for
	// replay work. The explored tree is unchanged: every merged counter
	// and every incident sample is identical to replay mode — only the
	// cost counter ReplaySteps drops, since prefix transitions are no
	// longer re-executed. Checkpoints still serialize decision prefixes,
	// never snapshots, so restored units replay. Units are spilled only
	// with Workers > 0; a search at Workers: 0 never spills, so the flag
	// changes nothing there (its backtracking undoes the trail regardless).
	SnapshotSpill bool `json:"snapshot_spill"`
	// Fault, if non-nil, is a fault-injection plan fired at the
	// engine's hook points — currently faultinject.PointExplorePath,
	// hit once before every explored path. Sleep rules simulate slow
	// or stuck searches (pair them with a context deadline to exercise
	// drained partial reports); error and panic rules surface through the
	// per-path panic isolation as internal-error incidents, so an
	// injected fault costs exactly one path, like a real interpreter
	// bug would. A nil plan is free.
	Fault *faultinject.Plan `json:"-"`
	// Obs, if non-nil, is the observability registry the search
	// publishes into: live counters (explore.states, ... — see
	// metrics.go) published in batches of paths, frontier/worker gauges,
	// depth histograms, and — when the registry carries a sink —
	// structured JSONL events (run start/stop, incidents, checkpoints,
	// truncation). Counter totals equal the merged Report counters
	// exactly once the search returns. A nil registry disables all
	// instrumentation at zero cost.
	Obs *obs.Registry `json:"-"`

	// Checkpoint, if non-nil, receives periodic snapshots of the
	// running search: the unexplored frontier (as decision-prefix work
	// units) plus the merged partial counters and incident samples. A
	// snapshot can be persisted and later passed to Resume. A checkpoint
	// is a read: every worker pauses at its next path boundary, the
	// snapshot is taken off their stacks and the frontier as they stand,
	// the callback runs on the goroutine that called Explore, and the
	// same workers continue. With Workers <= 1 no Report counter differs
	// from an uncheckpointed run; with more, only ReplaySteps can (which
	// worker claims which unit shifts, and with it which prefixes
	// replay).
	Checkpoint func(*Snapshot) `json:"-"`
	// CheckpointEvery is the wall-clock period between checkpoints; 0
	// disables time-based checkpointing.
	CheckpointEvery time.Duration `json:"-"`
	// CheckpointEveryPaths triggers a checkpoint every N completed
	// paths — deterministic cut points, used by tests and experiments;
	// 0 disables.
	CheckpointEveryPaths int64 `json:"-"`

	// testPanicAtState, if non-nil, panics at every fresh state whose
	// decision prefix it accepts: the white-box panic-injection hook of
	// the isolation tests.
	testPanicAtState func(decisions []Decision) bool
	// testCacheHash, if non-nil, replaces the state cache's routing hash:
	// the white-box collision-injection hook of the cache tests.
	testCacheHash func([]byte) uint64
	// testReplayOnly, if set, keeps the engine from marking its machine,
	// so every path replays from the start of its unit and the red search
	// steps copies: the white-box baseline of the restore-vs-replay
	// equivalence tests.
	testReplayOnly bool
	// testFreshRedMemo, if set, empties the red search's memo at the
	// start of every red search, so each one steps every state it
	// expands: the white-box baseline of the memo's equivalence tests.
	testFreshRedMemo bool
}

// defaultSpillDepth bounds frontier spilling when Options.SpillDepth is
// zero: deep enough to fragment medium workloads into hundreds of
// stealable subtrees, shallow enough that the spilled prefixes stay
// short.
const defaultSpillDepth = 16

// Resolve decides the search an option set asks for: it fills the zero
// MaxDepth (1,000,000), MaxIncidents (16) and SpillDepth (16), a
// negative Workers with GOMAXPROCS, and refuses what the engine cannot
// honour instead of rewriting it. Nothing else changes, so it is
// idempotent. Every entry point and front end calls it.
func (opt Options) Resolve() (Options, error) {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"MaxDepth", int64(opt.MaxDepth)}, {"MaxStates", opt.MaxStates},
		{"MaxIncidents", int64(opt.MaxIncidents)}, {"SpillDepth", int64(opt.SpillDepth)},
		{"MaxCacheBytes", opt.MaxCacheBytes},
	} {
		if f.v < 0 {
			return opt, fmt.Errorf("explore: %s is %d; it must not be negative", f.name, f.v)
		}
	}
	switch {
	case opt.Stop != StopNone && opt.Stop != StopViolation && opt.Stop != StopIncident:
		return opt, fmt.Errorf("explore: Stop is %s; an incident stops a search as %s or %s", opt.Stop, StopViolation, StopIncident)
	case opt.Liveness && opt.POR == PORDynamic:
		return opt, fmt.Errorf("explore: Liveness does not compose with POR dynamic: a backtrack set can defer the transition that closes a cycle past the detector")
	case opt.Liveness && opt.SnapshotSpill:
		return opt, fmt.Errorf("explore: Liveness does not compose with SnapshotSpill: a spilled snapshot lacks the stem that rebuilds the live stack")
	case opt.MaxCacheBytes != 0 && !opt.StateCache:
		return opt, fmt.Errorf("explore: MaxCacheBytes requires StateCache")
	}
	if opt.MaxDepth == 0 {
		opt.MaxDepth = 1000000
	}
	if opt.MaxIncidents == 0 {
		opt.MaxIncidents = 16
	}
	if opt.SpillDepth == 0 {
		opt.SpillDepth = defaultSpillDepth
	}
	if opt.Workers < 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	return opt, nil
}

// LeafKind classifies path endings.
type LeafKind int

// Leaf kinds.
const (
	LeafTerminated    LeafKind = iota // all processes terminated
	LeafDeadlock                      // deadlock (some process running, none enabled)
	LeafViolation                     // assertion violation
	LeafTrap                          // runtime error
	LeafDivergence                    // invisible-step budget exhausted
	LeafDepth                         // depth bound reached
	LeafSleepPruned                   // all enabled transitions in the sleep set
	LeafCachePruned                   // state fingerprint already visited (StateCache)
	LeafInternalError                 // engine/interpreter panic isolated to one path
	LeafLivelock                      // non-progress cycle detected (Options.Liveness)
)

// String names the leaf kind.
func (k LeafKind) String() string {
	switch k {
	case LeafTerminated:
		return "terminated"
	case LeafDeadlock:
		return "deadlock"
	case LeafViolation:
		return "violation"
	case LeafTrap:
		return "trap"
	case LeafDivergence:
		return "divergence"
	case LeafDepth:
		return "depth-bound"
	case LeafSleepPruned:
		return "sleep-pruned"
	case LeafCachePruned:
		return "cache-pruned"
	case LeafInternalError:
		return "internal-error"
	case LeafLivelock:
		return "livelock"
	}
	return "unknown"
}

// MarshalText spells the kind as String does: an incident sample's JSON
// form in a checkpoint.
func (k LeafKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText is the inverse of MarshalText, refusing an unknown name.
func (k *LeafKind) UnmarshalText(b []byte) error {
	for l := LeafTerminated; l <= LeafLivelock; l++ {
		if l.String() == string(b) {
			*k = l
			return nil
		}
	}
	return fmt.Errorf("explore: unknown leaf kind %q", b)
}

// StopCause records why a search ended before covering the whole state
// space (Report.Cause; StopNone for a complete search).
type StopCause int

// Stop causes.
const (
	StopNone      StopCause = iota // search ran to completion
	StopMaxStates                  // Options.MaxStates budget exhausted
	StopTimeout                    // the context's deadline passed (ExploreContext)
	StopCancelled                  // the context was cancelled (ExploreContext)
	StopViolation                  // Options.Stop: an assertion violation or runtime error
	StopIncident                   // Options.Stop: any incident but an internal error
)

// String names the stop cause.
func (c StopCause) String() string {
	switch c {
	case StopNone:
		return "none"
	case StopMaxStates:
		return "max-states"
	case StopTimeout:
		return "timeout"
	case StopCancelled:
		return "cancelled"
	case StopViolation:
		return "stop-on-violation"
	case StopIncident:
		return "stop-on-incident"
	}
	return "unknown"
}

// MarshalText spells the cause as String does: Options.Stop's JSON form.
func (c StopCause) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText is the inverse of MarshalText, refusing an unknown name.
func (c *StopCause) UnmarshalText(b []byte) error {
	for k := StopNone; k <= StopIncident; k++ {
		if k.String() == string(b) {
			*c = k
			return nil
		}
	}
	return fmt.Errorf("explore: unknown stop cause %q", b)
}

// Incident is a recorded sample of an interesting path ending. Its JSON
// form is a checkpoint's sample: the trace is not stored, since replaying
// the decisions rebuilds it.
type Incident struct {
	Kind  LeafKind       `json:"kind"`
	Msg   string         `json:"msg"`
	Depth int            `json:"depth"`
	Trace []interp.Event `json:"-"`
	// Decisions is the full decision sequence reaching the incident; it
	// can be re-executed deterministically with Replay.
	Decisions []Decision `json:"decisions,omitempty"`
	// CycleStart, for a LeafLivelock incident, is the index in
	// Decisions where the lasso's cycle begins: Decisions[:CycleStart]
	// is the stem, Decisions[CycleStart:] the non-progress cycle
	// (replaying the cycle's decisions again from the loop state
	// re-traverses the loop). Zero for every other kind.
	CycleStart int `json:"cycle_start,omitempty"`
}

// String renders the incident with its trace.
func (in *Incident) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s at depth %d: %s\n", in.Kind, in.Depth, in.Msg)
	if in.Kind == LeafLivelock {
		fmt.Fprintf(&b, "  lasso: stem %d decisions, cycle %d decisions\n",
			in.CycleStart, len(in.Decisions)-in.CycleStart)
	}
	for _, ev := range in.Trace {
		fmt.Fprintf(&b, "  %s\n", ev)
	}
	return b.String()
}

// Counters are a search's tallies. A Report carries them, and so does a
// checkpoint (Snapshot.Counters): this is their wire form, in the
// checkpoint's key order. The POR and liveness counters are omitempty,
// which keeps snapshots of searches that never move them byte-identical
// to the formats from before either existed.
type Counters struct {
	States      int64 `json:"states"`       // global states visited
	Transitions int64 `json:"transitions"`  // transitions executed during forward exploration
	Paths       int64 `json:"paths"`        // completed paths (leaves)
	Replays     int64 `json:"replays"`      // prefix re-executions (backtracks and work-unit claims)
	ReplaySteps int64 `json:"replay_steps"` // transitions re-executed while replaying prefixes
	MaxDepth    int   `json:"max_depth"`    // deepest path seen

	Terminated  int64 `json:"terminated"`
	Deadlocks   int64 `json:"deadlocks"`
	Violations  int64 `json:"violations"`
	Traps       int64 `json:"traps"`
	Divergences int64 `json:"divergences"`
	DepthHits   int64 `json:"depth_hits"`
	SleepPrunes int64 `json:"sleep_prunes"`
	CachePrunes int64 `json:"cache_prunes"`
	// InternalErrors counts paths that ended in an isolated
	// engine/interpreter panic (LeafInternalError): the panic is
	// recovered, recorded as an incident carrying the offending
	// decision prefix, and only that path is lost.
	InternalErrors int64 `json:"internal_errors"`
	// StatesAtFirstIncident is the number of states visited when the
	// first deadlock, violation, trap, or divergence was found (0 if
	// none was found). With Workers > 1 it misses the states the other
	// engines had not published yet.
	StatesAtFirstIncident int64 `json:"states_at_first_incident,omitempty"`

	// Dynamic-POR counters (zero outside POR == PORDynamic):
	// PorBacktracks counts backtrack points inserted at earlier
	// decision points when a dependent transition executed;
	// PorSleepBlocked counts candidate insertions (and dynamic
	// expansions) suppressed because the process was asleep;
	// PorDynamicPruned counts enabled transitions never expanded at
	// fully-explored dynamic decision points — the reduction's win
	// over full expansion.
	PorBacktracks    int64 `json:"por_backtracks,omitempty"`
	PorSleepBlocked  int64 `json:"por_sleep_blocked,omitempty"`
	PorDynamicPruned int64 `json:"por_dynamic_pruned,omitempty"`
	// Liveness counters (zero unless Options.Liveness ran on a unit
	// with progress labels): Livelocks counts paths ending in a
	// detected non-progress cycle; RedSearches counts nested (red)
	// searches launched at cache-pruned states, RedStates the states
	// they expanded, RedCut the searches that found no cycle before
	// running out of RedStateBudget — each a place where the verdict
	// "no livelock" is not backed (cycle.go).
	Livelocks   int64 `json:"livelocks,omitempty"`
	RedSearches int64 `json:"red_searches,omitempty"`
	RedStates   int64 `json:"red_states,omitempty"`
	RedCut      int64 `json:"red_cut,omitempty"`

	// Backtracking by undoing (restore.go): paths begun by undoing the
	// machine to a mark, the trail entries undone for them, and the times
	// the machine dropped a trail that had outgrown its bound. Like
	// ReplaySteps a cost, not a finding, and in no checkpoint.
	TrailRestores, TrailUndone, TrailDrops int64 `json:"-"`
	// RedSteps counts the transitions red searches executed on a
	// machine; the states they walked over the memo instead are in
	// RedStates only (cycle.go). A cost too, in no checkpoint.
	RedSteps int64 `json:"-"`
}

// Report summarizes a search.
type Report struct {
	Counters

	// Incomplete reports that the search ended before covering the
	// whole state space — cancelled, timed out, budget-exhausted, or
	// stopped on an incident. The counters are still internally
	// consistent (they cover exactly the explored work) and every
	// incident sample replays; Snapshot returns the remaining work.
	Incomplete bool
	// Cause says why an Incomplete search stopped (StopNone when the
	// search is complete).
	Cause StopCause

	// Visible-operation coverage: how many of the program's visible
	// operation sites (builtin call nodes) were executed at least once.
	// VeriSoft practice reports coverage of bounded searches.
	OpsCovered int
	OpsTotal   int

	// Workers is the Options.Workers value (defaults resolved) the
	// report was produced under: 0 for the inline search.
	Workers int
	// WorkerStats carries per-worker utilization (one entry at Workers:
	// 0, for the inline worker).
	WorkerStats []WorkerStat

	Samples []*Incident

	// pending is the unexplored remainder of an Incomplete search (work
	// units: unclaimed frontier plus residual subtrees of in-flight
	// paths); cov, procs and sites carry what Snapshot needs to serialize.
	pending []*workUnit
	cov     coverage
	procs   int
	sites   *siteTable
	// cacheSum summarizes the shared state cache at the end of the run
	// (nil without StateCache); Snapshot carries it as information
	// only — the cache itself is never serialized.
	cacheSum *snapCache
}

// String renders the report as a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"states=%d transitions=%d paths=%d replays=%d maxdepth=%d deadlocks=%d violations=%d traps=%d divergences=%d depth-hits=%d truncated=%t",
		r.States, r.Transitions, r.Paths, r.Replays, r.MaxDepth,
		r.Deadlocks, r.Violations, r.Traps, r.Divergences, r.DepthHits, r.Incomplete)
}

// CacheSummary renders what the search's state cache did and weighs, ""
// without one (or when worker processes kept their own): charged is what
// MaxCacheBytes bounds, the rendered fingerprints; resident the key bytes
// actually held, the segment table's text included.
func (r *Report) CacheSummary() string {
	c := r.cacheSum
	if c == nil {
		return ""
	}
	return fmt.Sprintf("entries=%d hits=%d misses=%d evictions=%d charged=%dB resident=%dB segments=%d",
		c.Entries, c.Hits, c.Misses, c.Evictions, c.Bytes, c.stored+c.segmentBytes, c.segments)
}

// Incidents returns the total number of deadlocks, violations, traps,
// divergences, livelocks, and internal errors.
func (r *Report) Incidents() int64 {
	return r.Deadlocks + r.Violations + r.Traps + r.Divergences + r.InternalErrors + r.Livelocks
}

// Summary renders the one-line run summary printed by cmd/verisoft and
// the experiment harness (states, transitions, workers, wall time,
// incidents). It shares its formatter with RegistrySummary, so a
// summary rendered from a Report and one rendered from the registry the
// same search filled are identical.
func (r *Report) Summary(wall time.Duration) string {
	return summaryLine(r.States, r.Transitions, r.Paths, r.Incidents(), r.Workers, wall)
}

// FirstIncident returns the first recorded sample of the given kind, or
// nil.
func (r *Report) FirstIncident(kind LeafKind) *Incident {
	for _, in := range r.Samples {
		if in.Kind == kind {
			return in
		}
	}
	return nil
}

// Explore runs the search to completion (or truncation) and returns the
// report.
func Explore(u *cfg.Unit, opt Options) (*Report, error) {
	return ExploreContext(context.Background(), u, opt)
}

// ExploreContext is Explore under a context: cancelling ctx stops the
// search gracefully. Workers return at path boundaries or at a fresh
// state they have not counted, their partial results merge exactly, and
// the Report comes back marked Incomplete with Cause StopCancelled —
// never an error, never a torn merge; the remaining frontier is
// available through Report.Snapshot for Resume. A deadline on ctx is the
// search's wall-clock budget: the same, with Cause StopTimeout. The
// MaxStates budget cuts a search the same way too.
func ExploreContext(ctx context.Context, u *cfg.Unit, opt Options) (*Report, error) {
	opt, err := opt.Resolve()
	if err != nil {
		return nil, err
	}
	return search(ctx, u, opt, nil, nil, true)
}

// Resume continues a search from a checkpoint snapshot previously
// produced by Options.Checkpoint or Report.Snapshot. The snapshot's
// partial counters and incident samples carry into the final report and
// its work units reseed the frontier. A resumed-to-completion search
// reports the same incident set (kind and message) — and, for
// checkpoint-, cancellation-, or MaxStates-cut runs, the same states,
// transitions, paths, and leaf counters — as an uninterrupted run; only
// Replays and ReplaySteps differ, because resuming re-replays unit
// prefixes. (StateCache runs are the exception to counter equality: a
// resumed search starts with an empty cache and may re-explore subtrees
// the original run would have pruned; the incident set is still the
// same.)
func Resume(u *cfg.Unit, snap *Snapshot, opt Options) (*Report, error) {
	return ResumeContext(context.Background(), u, snap, opt)
}

// ResumeContext is Resume under a context; a resumed search can itself
// be cancelled, timed out, and checkpointed again.
func ResumeContext(ctx context.Context, u *cfg.Unit, snap *Snapshot, opt Options) (*Report, error) {
	return resume(ctx, u, snap, opt, true)
}

// ResumeSlice is ResumeContext for a Slicer's batch, whose report leaves
// as its WireSnapshot: the wire form carries no traces, so the report's
// samples get none.
func ResumeSlice(ctx context.Context, u *cfg.Unit, batch *Snapshot, opt Options) (*Report, error) {
	return resume(ctx, u, batch, opt, false)
}

func resume(ctx context.Context, u *cfg.Unit, snap *Snapshot, opt Options, traces bool) (*Report, error) {
	opt, err := opt.Resolve()
	if err != nil {
		return nil, err
	}
	restored, err := restoreSnapshot(u, snap)
	if err != nil {
		return nil, err
	}
	return search(ctx, u, opt, restored, nil, traces)
}

// newMachine instantiates one machine of the configured engine over the
// shared resolution and, on the compiled machine, switches on
// incremental state hashing when the search will query StateHash for
// cache routing or the liveness stack. The reference answers StateHash
// by a full recomputation of the same function, so routing — and with
// it eviction behavior and merged reports — is identical on both.
func newMachine(res *interp.Resolution, opt Options) (interp.Machine, error) {
	m, err := res.NewMachine(opt.Engine)
	if err != nil {
		return nil, err
	}
	if opt.StateCache || opt.Liveness {
		if s, ok := m.(*interp.System); ok {
			s.SetStateHashing(true)
		}
	}
	return m, nil
}

// newStateCache returns the search's shared visited-state set, attached
// to every engine, or nil when StateCache is off: Options.Cache when
// the caller supplied one, else a cache built for this run.
func newStateCache(opt Options) *statecache.Cache {
	if !opt.StateCache {
		return nil
	}
	if opt.Cache != nil {
		return opt.Cache
	}
	return statecache.New(statecache.Config{MaxBytes: opt.MaxCacheBytes})
}

// footprintTable precomputes the queries the persistent-set heuristic
// and dynamic POR make against the static object footprints, so the
// per-state loop runs on bitmasks instead of map lookups: per-object
// masks of the processes that can ever touch the object, and per
// process the mask of the processes whose footprints overlap its own.
// Objects go by their index in the unit's numbering (interp.Numbering),
// as in the pending table and dpor's last-access vector. Multi-word
// masks cover units with more than 64 processes — there is no map-based
// fallback path. Immutable, shared read-only by every worker of a
// parallel search.
type footprintTable struct {
	n int
	// numObjs is the number of declared objects.
	numObjs int
	// procWords is the word count of one process bitmask
	// ((n+63)/64); objProcs holds numObjs*procWords words — for object
	// index oi, words [oi*procWords, (oi+1)*procWords) are the mask of
	// processes whose footprint contains the object.
	procWords int
	objProcs  []uint64
	// overlap holds n masks of procWords words: mask q is the processes
	// whose footprint shares an object with q's.
	overlap []uint64
	// class holds each object's dynamic-POR conflict class (objClass,
	// by object index): it decides which operation pairs on the
	// object are dependent-and-possibly-co-enabled, i.e. which pending
	// operations demand a backtrack point at a past access (dpor.go).
	class []uint8
}

// overlaps reports whether the footprints of processes q and m share an
// object.
func (t *footprintTable) overlaps(q, m int) bool {
	return t.overlap[q*t.procWords+m>>6]&(1<<uint(m&63)) != 0
}

// footprints computes, per process, the set of objects transitively
// reachable from its top-level procedure through the call graph,
// packaged with the precomputed index/mask/overlap forms. The result
// is read-only and shared by every worker of a parallel search.
func footprints(u *cfg.Unit) *footprintTable {
	sets := footprintSets(u)
	t := &footprintTable{n: len(sets)}
	num := interp.NumberUnit(u)
	t.numObjs = len(num.Objects)
	t.procWords = (t.n + 63) / 64
	if t.procWords == 0 {
		t.procWords = 1
	}
	t.overlap = make([]uint64, t.n*t.procWords)
	for i := range sets {
		for j := range sets {
			if overlapSets(sets[i], sets[j]) {
				t.overlap[i*t.procWords+j>>6] |= 1 << uint(j&63)
			}
		}
	}
	t.objProcs = make([]uint64, t.numObjs*t.procWords)
	for i, fp := range sets {
		for o := range fp {
			// A name the unit does not declare is never operated on.
			if oi := int(num.Object(o)); oi >= 0 {
				t.objProcs[oi*t.procWords+(i>>6)] |= 1 << uint(i&63)
			}
		}
	}
	t.class = make([]uint8, t.numObjs)
	for _, spec := range u.Objects {
		t.class[num.Object(spec.Name)] = uint8(objClassOf(spec))
	}
	return t
}

// componentMemo holds the connected components of the footprint-overlap
// graph over the running processes for the last running mask it was
// asked about, one per engine. A mask changes only when a process
// terminates or a backtrack returns to a state before that; a new mask
// is labelled again in the memo's own storage, a word of overlap mask at
// a time.
type componentMemo struct {
	mask []uint64
	left []uint64 // running processes not yet labelled
	comp []int32  // component of each running process, -1 for the others
	todo []int    // labelling scratch
}

// lookup returns the components of the running processes of mask running.
func (cm *componentMemo) lookup(t *footprintTable, running []uint64) []int32 {
	if cm.comp != nil && slices.Equal(cm.mask, running) {
		return cm.comp
	}
	cm.mask = append(cm.mask[:0], running...)
	left := append(cm.left[:0], running...)
	comp := slices.Grow(cm.comp[:0], t.n)[:t.n]
	for q := range comp {
		comp[q] = -1
	}
	todo := cm.todo
	next := int32(0)
	for r := range comp {
		if left[r>>6]&(1<<uint(r&63)) == 0 {
			continue
		}
		left[r>>6] &^= 1 << uint(r&63)
		comp[r] = next
		todo = append(todo[:0], r)
		for len(todo) > 0 {
			m := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			for w, row := range t.overlap[m*t.procWords : (m+1)*t.procWords] {
				reach := row & left[w]
				left[w] &^= reach
				for ; reach != 0; reach &= reach - 1 {
					q := w<<6 + bits.TrailingZeros64(reach)
					comp[q] = next
					todo = append(todo, q)
				}
			}
		}
		next++
	}
	cm.left, cm.comp, cm.todo = left, comp, todo
	return comp
}

// overlapSets reports whether two footprint sets share an object
// (table construction only; the per-state loop uses the matrix).
func overlapSets(a, b map[string]bool) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

func footprintSets(u *cfg.Unit) []map[string]bool {
	mentions := make(map[string]map[string]bool, len(u.Procs)) // proc -> objects
	calls := make(map[string][]string, len(u.Procs))           // proc -> callees
	for name, g := range u.Procs {
		m := make(map[string]bool)
		for _, n := range g.Nodes {
			if n.Kind != cfg.NCall {
				continue
			}
			cs := n.CallStmt()
			if b, ok := sem.Builtins[cs.Name.Name]; ok {
				if b.HasObj && len(cs.Args) > 0 {
					if id, ok := cs.Args[0].(*ast.Ident); ok {
						m[id.Name] = true
					}
				}
				continue
			}
			calls[name] = append(calls[name], cs.Name.Name)
		}
		mentions[name] = m
	}
	out := make([]map[string]bool, len(u.Processes))
	for i, top := range u.Processes {
		fp := make(map[string]bool)
		seen := map[string]bool{}
		var visit func(p string)
		visit = func(p string) {
			if seen[p] {
				return
			}
			seen[p] = true
			for o := range mentions[p] {
				fp[o] = true
			}
			for _, q := range calls[p] {
				visit(q)
			}
		}
		visit(top)
		out[i] = fp
	}
	return out
}

// siteTable is the explorer's copy of the unit's numbering
// (interp.Numbering). Every CFG node has one bit in a flat coverage
// bitmap — per-worker coverage is a bitmap ORed together by the merge
// layer — at the index the pending table reports as its site; objs
// names the declared objects by index, for where an index is spelled
// out (checkpoints, cache keys).
type siteTable struct {
	bits  int      // total bitmap width (all nodes)
	total int      // visible-operation sites (builtin call nodes)
	objs  []string // declared object names, in index order
}

func newSiteTable(u *cfg.Unit) *siteTable {
	num := interp.NumberUnit(u)
	t := &siteTable{bits: num.SiteBits, objs: num.Objects}
	for _, name := range u.Order {
		for _, n := range u.Procs[name].Nodes {
			if n.Kind == cfg.NCall && sem.IsBuiltin(n.CallStmt().Name.Name) {
				t.total++
			}
		}
	}
	return t
}

// name spells out an object index ("" for -1, VS_assert's none),
// objNames a list of them.
func (t *siteTable) name(o int32) string {
	if o < 0 {
		return ""
	}
	return t.objs[o]
}

func (t *siteTable) objNames(objs []int32) []string {
	names := make([]string, len(objs))
	for i, o := range objs {
		names[i] = t.name(o)
	}
	return names
}

// coverage is a bitmap over the unit's CFG nodes; only visible-operation
// sites are ever set.
type coverage []uint64

func newCoverage(t *siteTable) coverage {
	return make(coverage, (t.bits+63)/64)
}

// set marks site i, writing only the first time: engines' bitmaps may
// share a cache line, which a store every step would bounce.
func (c coverage) set(i int) {
	if w, b := &c[i>>6], uint64(1)<<(uint(i)&63); *w&b == 0 {
		*w |= b
	}
}

func (c coverage) or(d coverage) {
	for i := range c {
		c[i] |= d[i]
	}
}

func (c coverage) count() int {
	n := 0
	for _, w := range c {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// sortSamples orders incident samples for presentation: shallowest
// first, ties broken by the lexicographic order of their decision
// sequences (which is exactly depth-first discovery order), so the
// ordering is stable regardless of worker count or scheduling.
func sortSamples(s []*Incident) {
	sort.SliceStable(s, func(i, j int) bool { return sampleLess(s[i], s[j]) })
}

func sampleLess(a, b *Incident) bool {
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	if c := compareDecisions(a.Decisions, b.Decisions); c != 0 {
		return c < 0
	}
	return a.Msg < b.Msg
}

// compareDecisions orders decision sequences lexicographically. Since
// sibling options are generated in ascending order, this is sequential
// DFS preorder.
func compareDecisions(a, b []Decision) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Value != b[i].Value {
			if a[i].Value < b[i].Value {
				return -1
			}
			return 1
		}
		if a[i].Toss != b[i].Toss {
			// A toss and a scheduling decision at the same position
			// cannot happen on a deterministic replay tree, but order
			// them anyway: toss first.
			if a[i].Toss {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
