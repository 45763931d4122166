package explore

import (
	"fmt"
	"runtime"
	"slices"
	"strings"

	"reclose/internal/faultinject"
	"reclose/internal/interp"
	"reclose/internal/obs"
	"reclose/internal/statecache"
)

// ReplayMismatchError reports a divergence between a recorded decision
// prefix and the behavior observed while re-executing it — which
// indicates nondeterminism outside the recorded decisions, or a stale
// or corrupted checkpoint. The engine raises it as a panic that the
// per-path recovery isolates into an internal-error incident, so a
// mismatch fails only the offending work unit, never the search.
type ReplayMismatchError struct {
	Want string // the decision shape the replay expected
	Got  string // what the recorded sequence held instead
}

func (e *ReplayMismatchError) Error() string {
	return fmt.Sprintf("explore: replay mismatch (expected %s, got %s)", e.Want, e.Got)
}

// entry is one decision point on the DFS stack.
type entry struct {
	isToss  bool
	options []int
	cursor  int
	// Scheduling entries record, per option, the object its pending
	// visible operation targets (index in the unit's numbering, -1 for
	// VS_assert), for sleep-set updates; the sleep set inherited at this
	// state; the storage of the one the current option's subtree inherits
	// (childSleep; sleep.go says who may read it); and the state's pending
	// table, so that replaying an option does not read the state again
	// (empty on an entry rebuilt from a work unit until a path first comes
	// through its state).
	objs  []int32
	sleep sleepSet
	child sleepSet
	pend  []interp.Pending
	// shared marks an entry whose options/objs backing arrays escaped
	// into a work unit (a spill, or a unit-restored decision point);
	// the entry pool must not recycle them — a claimer may still be
	// reading the published slices.
	shared bool

	// Dynamic-POR state (POR == PORDynamic only; see dpor.go).
	// dynamic marks an entry expanded lazily: options starts as a
	// single enabled transition and grows as dependency insertions
	// fold in. enabled/enObjs record the full enabled set (with
	// pending-operation objects) at the decision state; backtrack is
	// the pending backtrack set; statics the static persistent
	// candidates recorded for the cache-hit seal rule. sealed marks an
	// entry whose option set is statically complete — dependency
	// insertions into it are no-ops.
	dynamic   bool
	sealed    bool
	enabled   []int
	enObjs    []int32
	backtrack []int
	statics   []int
	// dporLast[dporLo:dporHi] are the last-access slots the entry's
	// chosen option marks (dporTrack records them when the option
	// executes), so a restore can re-mark the entries below it without
	// the machine. Empty for an objectless or untracked transition.
	dporLo, dporHi int

	// mark is the machine's state at this scheduling decision point,
	// before any of its options executed: the next path undoes the
	// machine to the deepest live one on the stack instead of
	// re-executing the path from the start (restore.go). markDepth is the
	// scheduling depth at that state.
	mark      interp.Mark
	markDepth int
}

func (e *entry) choice() int { return e.options[e.cursor] }

// engine is the stateless DFS core each worker of a search owns. It
// explores one claimed work unit at a time — the whole tree as the root
// unit, or a spilled or restored subtree — reaching the unit's decision
// point from its snapshot or by replaying its decision prefix (base),
// then extending the subtree depth-first.
type engine struct {
	// sys is the engine's private machine — the interpreter selected
	// by Options.Engine behind the uniform Machine interface
	// (transition semantics, fingerprints, state hashes, state copies).
	sys interp.Machine
	opt Options

	// footprint holds the static object footprints (which objects each
	// process can ever operate on, over-approximated via the call
	// graph) with their precomputed mask/overlap forms; read-only and
	// shared across workers.
	footprint *footprintTable
	sites     *siteTable

	// base is the decision prefix of the current work unit, replayed
	// verbatim from the initial state before the stack decisions; empty
	// for the root unit.
	base      []Decision
	baseSched int // scheduling decisions in base
	baseIdx   int
	// baseSleep is the pending sleep set carried by a continuation or
	// toss work unit: it becomes the sleep context of the first fresh
	// state after the base replay (nil otherwise).
	baseSleep sleepSet

	stack []*entry
	// stackSched counts the scheduling entries on the stack, kept in
	// step by push/pop so schedDepth never walks it.
	stackSched int
	replayIdx  int
	// leafDecs is the decision list handed to OnLeaf, reused path to path.
	leafDecs []Decision
	// pendingSleep is the sleep set to attach to the next scheduling
	// entry (computed when its parent's option was executed).
	pendingSleep sleepSet
	// entPool recycles popped stack entries together with their
	// options/objs backing arrays (skipping shared ones), so a
	// steady-state search allocates no per-state entry machinery.
	entPool []*entry

	// snapRoot, when the claimed unit carries a snapshot
	// (Options.SnapshotSpill), is the forked machine pinned at the unit's
	// decision point. A path that finds no live mark on its stack goes
	// on with a fork of it instead of replaying the base prefix
	// from the initial state. Nil in replay mode. snapRoot is shared with
	// other claimers and only ever read.
	snapRoot interp.Machine

	// trail is a mark on the machine's current trail, which an entry's
	// mark has to share to be alive; the dead mark when none on the stack
	// is (restore.go).
	trail interp.Mark

	// partial is the engine's share of the result: the counters and
	// samples of the paths it ran (rep) and the sites they covered.
	partial
	// cache is the search's shared visited-state set (nil without
	// StateCache): one statecache.Cache per run, shared by every
	// engine of the search.
	cache *statecache.Cache
	// segs is the search's segment table, which the machine writes its
	// keys under; under nil a key is the fingerprint.
	segs interp.SegmentTable
	// pend is the pending table of the state the machine is in, at every
	// step of a path: read at its root (observe) or copied from the
	// restored entry, then patched by each transition (runPath). It is
	// all the scheduling layer reads of a state.
	pend    []interp.Pending
	fpBuf   []byte        // state-key scratch
	enBuf   []int         // the fresh state's enabled processes (scanEnabled)
	running []uint64      // the fresh state's running-process mask (scanEnabled)
	setBuf  []int         // persistent-set result scratch (consumed by scheduleOptions before the next call)
	oneBuf  [1]int        // singleton persistent-set scratch
	comps   componentMemo // persistentSet's closures, for the last running mask
	dec     decisionArena // spill-prefix allocator

	// Dynamic-POR per-path last-access vector: dporLast[objIndex] is
	// the stack index of the last executed transition targeting the
	// object (-1 for none this path); dporTouched lists the indices to
	// clear at the next path start (dpor.go).
	dporLast    []int
	dporTouched []int

	// Liveness cycle detection (Options.Liveness on a unit with
	// progress labels; cycle.go). liveStack holds the fingerprints of
	// the states on the current path — nil when detection is off, which
	// is the per-state on/off test; liveMeta is its per-depth progress
	// bookkeeping; lasso carries a pending livelock witness into
	// recordSample. liveDepth is the scheduling depth the replay has
	// reached, kept with detection off too: a mark records it.
	liveStack *statecache.StackSet
	liveMeta  []liveMeta
	liveDepth int
	lasso     *lassoSample
	// red is the red search's memo of the non-progress graph and its
	// walk's storage, kept across searches (cycle.go).
	red *redWalk

	// met is the search's shared observability instruments (noMetrics
	// when disabled — never nil). The engine counts into plain fields —
	// e.rep, tal (its machine's and its forks'), depths — and publish
	// carries them to met: metCur is how much it has carried, pubStates
	// the states among it, sincePub the paths run since.
	met       *exploreMetrics
	metCur    metricsCursor
	tal       interp.Tally
	depths    obs.HistTally
	pubStates int64
	sincePub  int
	// resv is the engine's reservation of states (reserve), held its rest.
	resv, held int64

	ch interp.Chooser
	// midPath is set when a path was cut at a fresh, not-yet-explored
	// state (cancellation, timeout, or budget): residualUnits then
	// emits a continuation unit for that state's subtree.
	midPath bool
	// pathEnded flags that the current path's leaf has been accounted;
	// the panic recovery uses it to avoid double-counting a path when
	// the panic came from the OnLeaf callback.
	pathEnded bool

	// shared is the search's stop and pause flags, budget and live
	// counters, one per search whatever the worker count.
	shared *sharedState
	// spill publishes a unit on the frontier; nil for the inline
	// depth-first search, which never spills.
	spill func(*workUnit)
}

// newEngine builds an engine over its private machine. footprint, sites
// and shared are common to every engine of the search, the first two
// read-only.
func newEngine(sys interp.Machine, opt Options, fps *footprintTable, sites *siteTable, shared *sharedState) *engine {
	e := &engine{sys: sys, opt: opt, footprint: fps, sites: sites, met: noMetrics, shared: shared}
	sys.SetTally(&e.tal)
	e.partial = partial{rep: &Report{}, covered: newCoverage(sites)}
	if opt.Liveness {
		e.liveStack = statecache.NewStackSet()
		e.red = newRedWalk()
	}
	e.ch = e.chooser()
	return e
}

// tallyBatch is how many paths an engine runs between publishes (a unit's
// end and a return to the driver publish too) and how many states it
// reserves at a time.
const tallyBatch = 256

// publish carries what the engine counted since its last publish into
// the search's instruments and the shared count of published states.
func (e *engine) publish() {
	e.met.publish(e.rep, &e.tal, &e.metCur)
	e.met.pathDepth.AddTally(&e.depths)
	e.shared.published.Add(e.rep.States - e.pubStates)
	e.pubStates, e.sincePub = e.rep.States, 0
}

// reserve ends the engine's reservation of states and takes the next:
// tallyBatch, or under a MaxStates budget several engines share the one
// state it is at, so a cut counts exactly MaxStates. A spent budget
// stops the search; while other engines hold what is left of it, the
// engine waits for them to use or give back their states.
func (e *engine) reserve() {
	e.settle()
	n := int64(tallyBatch)
	if e.opt.MaxStates > 0 && e.opt.Workers > 1 {
		n = 1
	}
	for {
		got, spent := e.shared.reserve(n)
		if got > 0 || e.shared.yielding() {
			e.resv = got
			break
		}
		if spent {
			e.shared.requestStop(StopMaxStates)
			break
		}
		runtime.Gosched()
	}
	e.held = e.resv
}

// settle ends the engine's reservation, giving back what it left.
func (e *engine) settle() {
	e.shared.credit(e.resv, e.resv-e.held)
	e.resv, e.held = 0, 0
}

// chooser returns the Chooser used during path execution: it replays
// toss decisions from the base prefix, then from the stack prefix, and
// materializes new toss entries at the frontier (always starting with
// outcome 0).
func (e *engine) chooser() interp.Chooser {
	return interp.ChooserFunc(func(bound int) (int, bool) {
		if e.baseIdx < len(e.base) {
			d := e.base[e.baseIdx]
			if !d.Toss {
				panic(&ReplayMismatchError{Want: "toss decision in prefix", Got: d.String()})
			}
			e.baseIdx++
			return d.Value, true
		}
		if e.replayIdx < len(e.stack) {
			en := e.stack[e.replayIdx]
			if !en.isToss {
				// A scheduling entry where a toss was expected: the
				// replay diverged. The per-path recovery isolates it.
				panic(&ReplayMismatchError{Want: "toss entry on stack", Got: "scheduling entry"})
			}
			e.replayIdx++
			return en.choice(), true
		}
		en := e.getEntry()
		en.isToss = true
		for i := 0; i <= bound; i++ {
			en.options = append(en.options, i)
		}
		e.push(en)
		e.replayIdx = len(e.stack)
		return 0, true
	})
}

// getEntry returns a blank decision-point entry, recycling a pooled one
// (including its options/objs backing arrays) when available.
func (e *engine) getEntry() *entry {
	if k := len(e.entPool); k > 0 {
		en := e.entPool[k-1]
		e.entPool = e.entPool[:k-1]
		*en = entry{
			options:   en.options[:0],
			objs:      en.objs[:0],
			child:     en.child[:0],
			pend:      en.pend[:0],
			enabled:   en.enabled[:0],
			enObjs:    en.enObjs[:0],
			backtrack: en.backtrack[:0],
			statics:   en.statics[:0],
		}
		return en
	}
	return &entry{}
}

// putEntry recycles a popped entry. Shared entries — whose slices were
// published into a work unit — are left for the garbage collector.
func (e *engine) putEntry(en *entry) {
	if !en.shared {
		e.entPool = append(e.entPool, en)
	}
}

// push appends a decision point to the stack.
func (e *engine) push(en *entry) {
	e.stack = append(e.stack, en)
	if !en.isToss {
		e.stackSched++
	}
}

// pop removes and recycles the deepest decision point.
func (e *engine) pop() {
	top := e.stack[len(e.stack)-1]
	e.stack[len(e.stack)-1] = nil
	e.stack = e.stack[:len(e.stack)-1]
	if !top.isToss {
		e.stackSched--
	}
	e.putEntry(top)
}

// clearStack pops everything: a new unit is being loaded.
func (e *engine) clearStack() {
	for len(e.stack) > 0 {
		e.pop()
	}
}

// backtrack advances the deepest decision point with options left,
// popping exhausted entries. A dynamic entry whose options exhaust
// first folds its pending backtrack points in as fresh options; only
// when none remain is it popped. It reports whether the search
// continues.
func (e *engine) backtrack() bool {
	for len(e.stack) > 0 {
		top := e.stack[len(e.stack)-1]
		top.cursor++
		if top.cursor < len(top.options) {
			return true
		}
		if top.dynamic && !top.sealed && e.foldBacktracks(top) {
			return true
		}
		if top.dynamic && len(top.enabled) > len(top.options) {
			e.rep.PorDynamicPruned += int64(len(top.enabled) - len(top.options))
		}
		e.pop()
	}
	return false
}

// runPathSafe executes one path, converting any panic — an interpreter
// bug, a replay mismatch, a hostile checkpoint — into an isolated
// internal-error incident carrying the offending decision prefix. Only
// the panicking path is lost: the recovery abandons every mark on the
// stack, so the next path starts by overwriting the whole machine —
// sys.Reset, or a fork of the unit's snapshot — and a torn interpreter
// state cannot leak; the DFS backtracks past the failure and continues.
func (e *engine) runPathSafe() {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e.trail = interp.Mark{} // no mark is to be trusted: the next path resets the machine
		msg := panicMessage(r)
		if e.pathEnded {
			// The path's leaf was already accounted (the panic came
			// from the OnLeaf callback or later): record the incident
			// without recounting the path.
			e.rep.InternalErrors++
			e.noteIncident()
			e.recordSample(LeafInternalError, msg)
			e.met.emitIncident(LeafInternalError, e.schedDepth(), msg)
		} else {
			e.leaf(LeafInternalError, msg)
		}
	}()
	if e.opt.Fault != nil {
		// Fault-injection hook: a sleep rule stalls this path, an
		// error or panic rule aborts it — recovered above into an
		// internal-error incident, exactly like a real panic.
		if err := e.opt.Fault.Fire(faultinject.PointExplorePath); err != nil {
			panic(err)
		}
	}
	e.runPath()
}

// panicMessage renders a recovered panic value for an internal-error
// incident.
func panicMessage(r any) string {
	switch v := r.(type) {
	case error:
		return "panic: " + v.Error()
	case string:
		return "panic: " + v
	default:
		return fmt.Sprintf("panic: %v", v)
	}
}

// runPath executes one path: it brings the machine to the deepest
// point of the current decisions it can, replays the decisions from
// there, then extends the path depth-first until it ends. The starting
// point is, in order of preference, the deepest live mark on the
// engine's own stack (restore.go), the claimed unit's snapshot (the
// unit's decision point), or the initial state — from which the base
// prefix and the whole stack replay.
func (e *engine) runPath() {
	e.replayIdx = 0
	e.pendingSleep = e.baseSleep
	e.pathEnded = false
	e.midPath = false
	e.liveDepth = 0
	e.dporBegin()

	switch {
	case e.restore():
		// The entry restored to keeps its state's table.
		e.pend = append(e.pend[:0], e.stack[e.replayIdx].pend...)
	case e.snapRoot != nil:
		e.sys = e.snapRoot.ForkMachine(&e.tal)
		e.baseIdx = len(e.base)
		e.liveDepth = e.baseSched
		e.observe()
	default:
		e.sys.Reset()
		e.baseIdx = 0
		if out := e.sys.Init(e.ch); out != nil {
			e.leafOutcome(out)
			return
		}
		e.observe()
	}

	for {
		// Replay the work unit's decision prefix (the chooser replays
		// its toss decisions transparently during Init/Step).
		if e.baseIdx < len(e.base) {
			d := e.base[e.baseIdx]
			if d.Toss {
				panic(&ReplayMismatchError{Want: "scheduling decision in prefix", Got: d.String()})
			}
			pd := e.pend[d.Value]
			if e.liveStack != nil {
				e.liveNoteReplay(pd, e.liveDepth, e.baseIdx)
			}
			e.liveDepth++
			e.baseIdx++
			e.cover(pd)
			_, out := e.sys.Step(d.Value, e.ch)
			e.rep.ReplaySteps++
			if out != nil {
				e.leafOutcome(out)
				return
			}
			e.pend = e.sys.PatchPending(e.pend, d.Value)
			continue
		}

		// Replay pending scheduling decisions from the stack.
		if e.replayIdx < len(e.stack) {
			en := e.stack[e.replayIdx]
			if en.isToss {
				panic(&ReplayMismatchError{Want: "scheduling entry on stack", Got: "toss entry"})
			}
			e.replayIdx++
			p := en.choice()
			if len(en.pend) == 0 {
				// An entry rebuilt from a work unit or a checkpoint: the
				// replay has reached its state's table.
				en.pend = append(en.pend, e.pend...)
			}
			pd := e.pend[p]
			e.pendingSleep = en.childSleep()
			if !en.mark.SameTrail(e.trail) {
				// An entry rebuilt from a work unit or a checkpoint, or one
				// whose mark died with the log: the search comes back here.
				e.markEntry(en, e.liveDepth)
			}
			if e.liveStack != nil {
				e.liveNoteReplay(pd, e.liveDepth, len(e.base)+e.replayIdx-1)
			}
			e.liveDepth++
			if e.opt.POR == PORDynamic {
				e.dporTrack(e.replayIdx-1, pd, en)
			}
			e.cover(pd)
			_, out := e.sys.Step(p, e.ch)
			e.rep.ReplaySteps++
			if out != nil {
				e.leafOutcome(out)
				return
			}
			e.pend = e.sys.PatchPending(e.pend, p)
			continue
		}

		// Frontier: we are at a fresh global state. Every cut —
		// cancellation, timeout, or an exhausted MaxStates budget —
		// happens before the state is counted, so a continuation unit
		// resuming here recounts nothing and resumed totals match an
		// uninterrupted run exactly. The engine counts states against a
		// reservation of the shared count (reserve), so the count never
		// overshoots the MaxStates bound.
		if e.held == 0 && !e.shared.stopped() {
			e.reserve()
		}
		if e.held == 0 || e.shared.stopped() {
			e.midPath = true
			return
		}
		e.held--
		e.rep.States++
		if hook := e.opt.testPanicAtState; hook != nil && hook(e.pathDecisions()) {
			panic("injected test panic")
		}
		depth := e.schedDepth()
		if depth > e.rep.MaxDepth {
			e.rep.MaxDepth = depth
		}
		if e.opt.POR == PORDynamic {
			// The FG backtrack-set update runs at every new state —
			// leaf states included (a deadlocked process's pending
			// operation still demands its conflict's accessor yield).
			e.dporUpdate()
		}

		if stuck := e.scanEnabled(); len(e.enBuf) == 0 {
			if stuck {
				e.leaf(LeafDeadlock, e.deadlockMsg())
			} else {
				e.leaf(LeafTerminated, "all processes terminated")
			}
			return
		}
		if depth >= e.opt.MaxDepth {
			e.leaf(LeafDepth, "depth bound reached")
			return
		}
		cached := e.cache != nil
		var h uint64
		var fpLen int
		if cached || e.liveStack != nil {
			// The state's identity, taken once: the blue stack, the cache
			// and the red search all read this key and this hash; fpLen is
			// the fingerprint's length.
			e.fpBuf, fpLen = e.sys.AppendKey(e.fpBuf[:0], e.segs)
			h = e.sys.StateHash()
		}
		// The blue (on-stack) cycle test runs before the cache: an
		// on-path revisit is a cycle the cache would otherwise prune
		// into silence (cycle.go).
		if e.liveStack != nil && e.liveCheck(depth, h) {
			return
		}
		if cached {
			// The cache key is the state's key plus the sleep-set
			// context: what gets expanded from here is a function of
			// both, so only a visit with an identical key covers this
			// one. Visit prunes only revisits at an equal or deeper
			// depth than a stored visit (a shallower revisit re-expands
			// — its subtree is cut later by the depth bound).
			keyLen := len(e.fpBuf)
			if !e.opt.NoSleep {
				e.fpBuf = e.appendSleepKey(e.fpBuf, fpLen)
			}
			// Route by the machine's state hash — incremental on the
			// compiled machine, a full walk on the reference — folding in
			// the sleep-key suffix when one was appended. Membership is
			// still the byte-exact key compare inside the cache; the hash
			// only picks the shard and bucket, so it must merely be a pure
			// function of the key bytes (the engines' hash/fingerprint
			// agreement is pinned by the machine judge).
			route := h
			if len(e.fpBuf) > keyLen {
				route = interp.Mix64(h, statecache.FNV1a(e.fpBuf[keyLen:]))
			}
			if e.opt.testCacheHash != nil {
				route = e.opt.testCacheHash(e.fpBuf)
			}
			// The budget is charged the fingerprint and the suffix,
			// however short the machine's key for them is.
			if e.cache.VisitCharged(route, e.fpBuf, fpLen+len(e.fpBuf)-keyLen, depth) {
				// A pruned revisit can still sit on a non-progress cycle
				// that closes through the earlier exploration — the red
				// half of the nested DFS chases it (cycle.go).
				if e.liveStack != nil && e.redSearch(depth, h, e.fpBuf[:keyLen]) {
					return
				}
				// Stateful-DPOR soundness: the pruned subtree can no
				// longer insert backtrack points into this path's
				// ancestors, so seal them to their statically complete
				// candidate sets (dpor.go).
				if e.opt.POR == PORDynamic {
					e.sealStack()
				}
				e.leaf(LeafCachePruned, "state already visited")
				return
			}
		}

		en := e.getEntry()
		e.scheduleOptions(en, depth)
		if len(en.options) == 0 {
			e.putEntry(en)
			e.leaf(LeafSleepPruned, "all enabled transitions asleep")
			return
		}
		en.sleep = e.pendingSleep
		en.pend = append(en.pend, e.pend...)
		if e.spill != nil && len(en.options) > 1 && depth < e.opt.SpillDepth {
			// Spill the unexplored sibling subtrees to the frontier and
			// keep only the first option locally. The spilled unit
			// carries the full option/object arrays so sleep sets are
			// recomputed identically by whichever worker claims it; the
			// entry is marked shared so the pool never recycles the
			// published backing arrays.
			u := &workUnit{
				prefix:  e.appendPathDecisions(e.dec.alloc(len(e.base) + len(e.stack))),
				options: en.options,
				objs:    en.objs,
				sleep:   e.pendingSleep.clone(),
				from:    1,
			}
			if e.opt.SnapshotSpill {
				// Fork the state at this decision point — before stepping
				// the locally kept option — so claimers of the sibling
				// subtrees resume here without replaying the prefix.
				u.snap = e.sys.ForkMachine(&e.tal)
			}
			e.met.unitsSpilled.Inc()
			e.spill(u)
			en.shared = true
			en.options = en.options[:1]
			en.objs = en.objs[:1]
		}
		e.push(en)
		e.replayIdx = len(e.stack)

		p := en.choice()
		pd := e.pend[p]
		e.cover(pd)
		e.markEntry(en, depth)
		e.pendingSleep = en.childSleep()
		if e.liveStack != nil {
			e.liveMeta[depth].progressOut = pd.Flags&interp.PendProgress != 0
		}
		e.liveDepth = depth + 1
		if e.opt.POR == PORDynamic {
			e.dporTrack(len(e.stack)-1, pd, en)
		}
		e.rep.Transitions++
		_, out := e.sys.Step(p, e.ch)
		if out != nil {
			e.leafOutcome(out)
			return
		}
		e.pend = e.sys.PatchPending(e.pend, p)
	}
}

// pathDecisions returns a copy of the full decision sequence of the
// current path: the base prefix plus the current stack choices.
func (e *engine) pathDecisions() []Decision {
	return e.appendPathDecisions(make([]Decision, 0, len(e.base)+len(e.stack)))
}

// appendPathDecisions appends the current path's decision sequence to
// dst and returns the extended slice.
func (e *engine) appendPathDecisions(dst []Decision) []Decision {
	dst = append(dst, e.base...)
	for _, en := range e.stack {
		dst = append(dst, Decision{Toss: en.isToss, Value: en.choice()})
	}
	return dst
}

// prepareUnit loads a claimed work unit: the unit's prefix becomes the
// engine's replay base and its decision point (if any) the bottom stack
// entry, positioned at the claimed option. Slicing options to from+1
// makes the entry exhausted after that one option; earlier indices stay
// visible so childSleep reconstructs the same sleep sets the sequential
// search would.
func (e *engine) prepareUnit(u *workUnit) {
	e.met.noteClaim(u)
	if e.liveStack != nil {
		// The live stack describes the previous unit's path; the new
		// unit's base replay rebuilds it from scratch.
		e.liveStack.Truncate(0)
	}
	e.base = u.prefix
	e.baseSched = 0
	for _, d := range u.prefix {
		if !d.Toss {
			e.baseSched++
		}
	}
	e.clearStack()
	e.baseSleep = nil
	e.snapRoot = u.snap
	switch {
	case u.root:
		// The whole tree: nothing to replay.
		return
	case len(u.stack) > 0:
		// A stack-continuation unit (dynamic POR): rebuild the whole
		// DFS stack — cursors, backtrack sets, seal flags — from the
		// published frames. The copies are engine-local, so dependency
		// insertions during the continued search mutate only this
		// engine's entries.
		e.baseSleep = u.sleep
		for i := range u.stack {
			en := e.getEntry()
			entryFromFrame(en, &u.stack[i])
			e.push(en)
		}
	case u.cont:
		// A continuation unit: the prefix reaches a state whose
		// exploration had not started when the search was cut. Carry
		// its pending sleep set; exploration restarts there with no
		// pre-positioned decision point.
		e.baseSleep = u.sleep
	default:
		en := &entry{isToss: u.toss, options: u.options[:u.from+1], cursor: u.from, shared: true}
		if u.toss {
			// A toss decision point: the sleep context of the
			// interrupted step travels beside it (toss entries carry no
			// sleep of their own).
			e.baseSleep = u.sleep
		} else {
			en.objs = u.objs[:u.from+1]
			en.sleep = u.sleep
		}
		e.push(en)
	}
	// Reaching the unit's subtree restarts a path: one replay, exactly
	// as a backtrack counts one. Replays counts
	// path restarts, however the restart reaches its state — replaying
	// the prefix, or restoring the unit's snapshot — so it is identical
	// across SnapshotSpill modes; only ReplaySteps (transitions
	// re-executed) drops.
	e.rep.Replays++
}

// residualUnits converts the engine's unexplored remainder into work
// units: one per stack entry with sibling options left (carrying the
// entry's options, objects, and sleep context so whoever claims it
// reconstructs identical sleep sets), plus a continuation unit for the
// tip of a path that was cut mid-exploration. Together with the work
// already counted in the engine's report, these units partition the
// engine's assigned subtree exactly — nothing is lost, nothing is
// explored twice.
func (e *engine) residualUnits() []*workUnit {
	if e.opt.POR == PORDynamic {
		// Dynamic entries carry backtrack sets that are still growing;
		// per-entry units cannot express that, so the whole remainder
		// travels as one stack-continuation unit (dpor.go).
		if u := e.stackResidual(); u != nil {
			return []*workUnit{u}
		}
		return nil
	}
	var units []*workUnit
	prefix := append([]Decision(nil), e.base...)
	sleepCtx := e.baseSleep
	for _, en := range e.stack {
		if en.cursor+1 < len(en.options) {
			// The entry's slices are published into the unit — and after
			// a checkpoint the search continues on this same stack, so
			// the entry must never reach the pool (a recycled backing
			// array would clobber the published unit).
			en.shared = true
			u := &workUnit{
				prefix:  append([]Decision(nil), prefix...),
				options: en.options,
				from:    en.cursor + 1,
				toss:    en.isToss,
			}
			if en.isToss {
				u.sleep = sleepCtx.clone()
			} else {
				u.objs = en.objs
				u.sleep = en.sleep.clone()
			}
			units = append(units, u)
		}
		if !en.isToss {
			sleepCtx = en.childSleep()
		}
		prefix = append(prefix, Decision{Toss: en.isToss, Value: en.choice()})
	}
	if e.midPath {
		units = append(units, &workUnit{prefix: prefix, sleep: e.pendingSleep.clone(), cont: true})
	}
	return units
}

// observe reads the pending table of a path's root state. A path begun
// by a restore starts from the copy the entry kept (entry.pend); every
// later state's table is its parent's, patched by the transition between
// them (runPath).
func (e *engine) observe() { e.pend = e.sys.AppendPending(e.pend[:0]) }

// scanEnabled lists the state's enabled processes in e.enBuf, ascending,
// and its running ones in the mask e.running. With none enabled the path
// ends — in a deadlock if stuck: a process other than a daemon is still
// running (a daemon models the most general environment; one blocked
// forever after the system is done is quiescence).
func (e *engine) scanEnabled() (stuck bool) {
	enabled := e.enBuf[:0]
	running := append(e.running[:0], make([]uint64, e.footprint.procWords)...)
	for p, pd := range e.pend {
		if pd.Flags&interp.PendRunning != 0 {
			running[p>>6] |= 1 << uint(p&63)
		}
		if pd.Flags&interp.PendEnabled != 0 {
			enabled = append(enabled, p)
		} else if pd.Flags&(interp.PendRunning|interp.PendDaemon) == interp.PendRunning {
			stuck = true
		}
	}
	e.enBuf, e.running = enabled, running
	return stuck
}

// cover records the visible-operation site of pd, the row of the
// process about to execute (-1 when it is at none).
func (e *engine) cover(pd interp.Pending) {
	if site := int(pd.Site); site >= 0 {
		e.covered.set(site)
	}
}

// schedDepth is the number of scheduling decisions along the current
// path.
func (e *engine) schedDepth() int { return e.baseSched + e.stackSched }

func (e *engine) deadlockMsg() string {
	var parts []string
	for i, n := 0, e.sys.NumProcs(); i < n; i++ {
		if e.sys.ProcStatus(i) != interp.Running {
			continue
		}
		op, obj, _ := e.sys.ProcPendingOp(i)
		parts = append(parts, fmt.Sprintf("P%d blocked on %s(%s)", i, op, obj))
	}
	return strings.Join(parts, ", ")
}

// scheduleOptions computes the transitions to explore from the current
// global state and appends them to en.options/en.objs. Static mode
// expands a persistent set (all enabled processes under POROff) minus
// the sleep set; dynamic mode delegates to scheduleDynamic — except at
// spillable depths, where the entry is expanded statically and sealed
// so it can be published to the frontier (publication seal rule,
// dpor.go). Both the candidate set and the sleep set are ordered by
// process index, so the sleep filter is a two-pointer scan.
func (e *engine) scheduleOptions(en *entry, depth int) {
	enabled := e.enBuf
	dynamic := e.opt.POR == PORDynamic
	if dynamic && !(e.spill != nil && depth < e.opt.SpillDepth) {
		e.scheduleDynamic(en, enabled)
		return
	}
	var set []int
	switch e.opt.POR {
	case POROff:
		set = enabled
	default:
		set = e.persistentSet(enabled)
	}
	sleep := e.pendingSleep
	si := 0
	for _, p := range set {
		if !e.opt.NoSleep {
			for si < len(sleep) && sleep[si].proc < p {
				si++
			}
			if si < len(sleep) && sleep[si].proc == p {
				continue
			}
		}
		en.options = append(en.options, p)
		en.objs = append(en.objs, e.pend[p].Obj)
	}
	if dynamic {
		en.sealed = true
	}
}

// persistentSet returns a persistent subset of the enabled processes,
// computed from static object footprints:
//
//   - if some enabled process's pending operation targets an object no
//     other running process can ever touch (or targets no object at
//     all, like VS_assert), that single process is persistent;
//   - otherwise, the enabled members of the first enabled process's
//     component in the footprint-overlap graph over the running
//     processes — kept for the last running mask (componentMemo).
//
// Both run on the footprintTable's precomputed bitmask forms
// (multi-word above 64 processes) and the running mask scanEnabled
// built — no map traffic in the per-state loop.
func (e *engine) persistentSet(enabled []int) []int {
	if len(enabled) <= 1 {
		return enabled
	}
	t, running := e.footprint, e.running
	pw := t.procWords
	for _, p := range enabled {
		// An operation without an object (VS_assert) is private to p.
		private := true
		base := int(e.pend[p].Obj) * pw
		for w := 0; base >= 0 && w < pw; w++ {
			m := t.objProcs[base+w] & running[w]
			if w == p>>6 {
				m &^= 1 << uint(p&63)
			}
			if m != 0 {
				private = false
				break
			}
		}
		if private {
			e.oneBuf[0] = p
			return e.oneBuf[:1]
		}
	}
	comp := e.comps.lookup(t, running)
	c := comp[enabled[0]]
	out := e.setBuf[:0]
	for _, p := range enabled {
		if comp[p] == c {
			out = append(out, p)
		}
	}
	e.setBuf = out
	return out
}

// childSleep computes the sleep set for the subtree under the current
// option of en: the inherited sleepers plus the previously explored
// options, minus everything dependent on the chosen transition (two
// transitions are dependent iff they target the same object). The
// inherited set and the explored options are both ordered by process
// index and disjoint (a sleeping process is never offered as an
// option), so a linear merge yields the child set already sorted. The
// result lives in en.child — overwritten by the next call, which
// computes the same set until en's cursor moves (sleep.go).
//
// Dynamic-POR entries can break the ordering premise: backtrack points
// fold in after earlier options, so the explored prefix may read
// [2, 0, 1]. Appending is then followed by an insertion sort, which
// restores the sleepSet by-process invariant.
func (en *entry) childSleep() sleepSet {
	chosenObj := en.objs[en.cursor]
	chosenP := en.options[en.cursor]
	out := slices.Grow(en.child[:0], len(en.sleep)+en.cursor)
	add := func(p int, obj int32) {
		if (obj != chosenObj || obj < 0) && p != chosenP {
			out = append(out, sleepEntry{proc: p, obj: obj})
		}
	}
	i, j := 0, 0
	for i < len(en.sleep) || j < en.cursor {
		if j >= en.cursor || (i < len(en.sleep) && en.sleep[i].proc < en.options[j]) {
			add(en.sleep[i].proc, en.sleep[i].obj)
			i++
		} else {
			add(en.options[j], en.objs[j])
			j++
		}
	}
	for k := 1; k < len(out); k++ {
		for m := k; m > 0 && out[m-1].proc > out[m].proc; m-- {
			out[m-1], out[m] = out[m], out[m-1]
		}
	}
	en.child = out
	return out
}

// leafOutcome records a path ending caused by an abnormal outcome.
func (e *engine) leafOutcome(out *interp.Outcome) {
	switch out.Kind {
	case interp.OutViolation:
		e.leaf(LeafViolation, out.Msg)
	case interp.OutTrap:
		e.leaf(LeafTrap, out.Msg)
	case interp.OutDivergence:
		e.leaf(LeafDivergence, out.Msg)
	case interp.OutNeedToss:
		// The explorer's chooser always supplies outcomes.
		panic("explore: unexpected NeedToss outcome")
	}
}

// noteIncident sets the states-at-first-incident watermark.
func (e *engine) noteIncident() {
	if e.rep.StatesAtFirstIncident == 0 {
		e.rep.StatesAtFirstIncident = e.shared.published.Load() + e.rep.States - e.pubStates
	}
}

// leaf records the end of a path.
func (e *engine) leaf(kind LeafKind, msg string) {
	e.pathEnded = true
	r := e.rep
	r.Paths++
	if e.shared.ckptEveryPaths > 0 {
		e.shared.notePaths(1)
	}
	switch kind {
	case LeafTerminated:
		r.Terminated++
	case LeafDeadlock:
		r.Deadlocks++
	case LeafViolation:
		r.Violations++
	case LeafTrap:
		r.Traps++
	case LeafDivergence:
		r.Divergences++
	case LeafDepth:
		r.DepthHits++
	case LeafSleepPruned:
		r.SleepPrunes++
	case LeafCachePruned:
		r.CachePrunes++
	case LeafInternalError:
		r.InternalErrors++
	case LeafLivelock:
		r.Livelocks++
	}
	interesting := kind == LeafDeadlock || kind == LeafViolation || kind == LeafTrap ||
		kind == LeafDivergence || kind == LeafInternalError || kind == LeafLivelock
	if interesting {
		e.noteIncident()
		e.recordSample(kind, msg)
		e.met.emitIncident(kind, e.schedDepth(), msg)
	}
	e.depths.Observe(int64(e.schedDepth()))
	// Internal-error paths stopped part way and may themselves be the
	// fallout of a panicking callback, so OnLeaf is not invoked for them.
	// The deferred unlock keeps a panicking callback from leaving the
	// mutex held and deadlocking the other workers.
	if e.opt.OnLeaf != nil && kind != LeafInternalError {
		func() {
			e.shared.leafMu.Lock()
			defer e.shared.leafMu.Unlock()
			if e.lasso != nil {
				e.leafDecs = append(e.leafDecs[:0], e.lasso.decisions...)
			} else {
				e.leafDecs = e.appendPathDecisions(e.leafDecs[:0])
			}
			e.opt.OnLeaf(kind, e.leafDecs)
		}()
	}
	if e.opt.Stop == StopViolation && (kind == LeafViolation || kind == LeafTrap) ||
		e.opt.Stop == StopIncident && interesting && kind != LeafInternalError {
		e.shared.requestStop(e.opt.Stop)
	}
}

// recordSample stores an incident sample, keeping the MaxIncidents
// smallest under sampleLess so the merged selection is independent of
// worker count and work distribution. Depth orders first, so a full set
// rejects a deeper sample before anything is copied.
func (e *engine) recordSample(kind LeafKind, msg string) {
	r := e.rep
	depth := e.schedDepth()
	full := len(r.Samples) >= e.opt.MaxIncidents
	if full && depth > r.Samples[len(r.Samples)-1].Depth {
		return
	}
	in := &Incident{Kind: kind, Msg: msg, Depth: depth}
	if e.lasso != nil {
		// A livelock witness replays the whole lasso: the path's
		// decisions extended by the red search's, with the stem/cycle
		// split recorded (cycle.go).
		in.Decisions = e.lasso.decisions
		in.CycleStart = e.lasso.cycleStart
	} else {
		in.Decisions = e.pathDecisions()
	}
	if full {
		if !sampleLess(in, r.Samples[len(r.Samples)-1]) {
			return
		}
		r.Samples = r.Samples[:len(r.Samples)-1]
	}
	r.Samples = append(r.Samples, in)
	sortSamples(r.Samples)
}

// appendSleepKey folds the pending sleep set into a cache key whose
// prefix is the key of a state with a fingerprint of fpLen bytes. The
// transitions expanded from a state exclude its sleeping processes, so
// two visits cover each other only when both the state and the sleep
// context match. The encoding is canonical (entries sorted by process
// index, every field length-delimited, the fingerprint length trailing)
// so equal (state, sleep) pairs — and only those — produce equal keys.
func (e *engine) appendSleepKey(dst []byte, fpLen int) []byte {
	sleep := e.pendingSleep
	if len(sleep) == 0 {
		return dst
	}
	// A sleepSet is already ordered by process index — the canonical
	// order falls out of the representation. The object goes in by name
	// and the trailing field is the fingerprint's length, not the key's:
	// the suffix is hashed into the routing and charged to -cache-mem.
	for _, se := range sleep {
		p, obj := se.proc, e.sites.name(se.obj)
		dst = append(dst, byte(p), byte(p>>8))
		dst = append(dst, byte(len(obj)), byte(len(obj)>>8))
		dst = append(dst, obj...)
	}
	return append(dst, byte(fpLen), byte(fpLen>>8), byte(fpLen>>16), byte(fpLen>>24))
}
