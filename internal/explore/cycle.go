package explore

// Liveness: non-progress cycle (livelock) detection over the stateful
// search, a nested-DFS layered on the engine's decision-stack DFS.
//
// A livelock is a cycle in the closed system's state graph that
// executes no progress-labeled visible operation: the system runs
// forever without ever doing the thing the program declared as useful
// work. Progress is declared in MiniC with the contextual `progress`
// label on a builtin call (`progress send(out, v);`). A unit with no
// labels treats every visible operation as progress (the interpreter
// bakes the default into the compiled ops), so existing programs need
// no edits and only cycles of pure internal computation — spinning
// without touching any object — are reported.
//
// The search has the two classic halves of nested DFS, adapted to the
// stateless engine:
//
//   - Blue (on-stack) check: the engine keeps the key of every state
//     on the current path in a statecache.StackSet. A fresh state's key
//     and hash are taken once (runPath) and serve this check and the
//     cache visit after it. A fresh state whose key already sits on the
//     stack closes a cycle;
//     if the segment between the two occurrences contains no progress
//     transition (an O(1) query over per-depth progress counters), the
//     path itself is a lasso — stem = decisions up to the first
//     occurrence, cycle = the rest — and it ends in a LeafLivelock
//     incident whose Decisions replay the whole lasso.
//
//   - Red (nested) search: when the state cache prunes a revisit, the
//     cycle may close through states explored on an earlier path — a
//     cross edge the blue check cannot see. A bounded DFS, undone edge
//     by edge, follows only non-progress transitions from the pruned state,
//     looking for any on-stack state whose on-path suffix is also
//     progress-free; reaching one exhibits a lasso whose cycle runs
//     partly over the blue path and partly over the red extension. A
//     search the bound stops is counted (Report.RedCut): the verdict
//     says how many there were.
//
// Decision-stack backtracking makes the live stack cheap to maintain:
// a backtrack leaves a path's prefix below the change point unchanged,
// so the live entries there stay valid whether the engine re-executes
// that prefix or undoes to a mark above it (restore sets liveDepth
// to the mark's depth and the replay continues from there). Only
// the transition out of the change point needs its progress bit
// refreshed, and truncation at the fresh state's depth drops whatever
// the backtrack abandoned.
//
// POR interaction (the cycle proviso): reduction can defer the
// transition that would close a cycle past the depth the detector
// inspects, so liveness runs under the strict static oracle — Resolve
// refuses it with PORDynamic, whose seals/backtrack machinery never
// runs here. Static persistent
// sets and sleep sets remain active; they can hide cycles that only
// close under a pruned interleaving (the ignoring problem, documented
// in DESIGN.md) — run with POR: POROff / NoSleep for the
// exhaustive graph. Resolve refuses SnapshotSpill too: spilled units
// rebuild their stem (and with it the live stack) by replay.

import (
	"fmt"
	"sort"

	"reclose/internal/interp"
)

// liveMeta is the per-depth progress bookkeeping parallel to the
// engine's live StackSet.
type liveMeta struct {
	// progressOut records that the transition taken out of this state
	// on the current path is progress-labeled; refreshed on every
	// replay, since a backtrack changes the deepest choice.
	progressOut bool
	// progCount is the number of progress transitions among the path's
	// transitions into this state (monotone nondecreasing with depth).
	progCount int
	// decIdx is the number of decisions (scheduling and toss) consumed
	// to reach this state — the lasso's stem/cycle split point.
	decIdx int
}

// lassoSample carries a pending livelock witness from detection to
// recordSample: the full decision sequence (stem then cycle) and the
// index where the cycle starts.
type lassoSample struct {
	decisions  []Decision
	cycleStart int
}

// RedStateBudget bounds the states one red search may expand. The red
// search is launched per cache-pruned state; the budget keeps a dense
// pruned frontier from turning detection quadratic. A cycle beyond the
// budget is missed (detection under-approximates), never misreported;
// Report.RedCut counts the searches it stopped.
const RedStateBudget = 4096

// liveNoteReplay records or refreshes the live-stack entry for the
// state a replayed scheduling transition leaves from: pd is the chosen
// process's row there, depth the state's scheduling depth, decIdx the
// decisions consumed to reach it. Called before the Step, while the
// machine still sits at the state.
func (e *engine) liveNoteReplay(pd interp.Pending, depth, decIdx int) {
	if depth >= e.liveStack.Len() {
		e.fpBuf, _ = e.sys.AppendKey(e.fpBuf[:0], e.segs)
		e.liveStack.Push(depth, e.sys.StateHash(), e.fpBuf)
		e.liveMetaSet(depth, decIdx)
	}
	e.liveMeta[depth].progressOut = pd.Flags&interp.PendProgress != 0
}

// liveMetaSet initializes the meta entry for a newly recorded state.
func (e *engine) liveMetaSet(depth, decIdx int) {
	for len(e.liveMeta) <= depth {
		e.liveMeta = append(e.liveMeta, liveMeta{})
	}
	e.liveMeta[depth] = liveMeta{progCount: e.progCountAt(depth), decIdx: decIdx}
}

// progCountAt is the number of progress transitions among the first
// depth transitions of the current path, derived from the parent
// state's bookkeeping (the state at depth itself may not be recorded
// yet).
func (e *engine) progCountAt(depth int) int {
	if depth == 0 {
		return 0
	}
	m := &e.liveMeta[depth-1]
	if m.progressOut {
		return m.progCount + 1
	}
	return m.progCount
}

// liveCheck runs the on-stack (blue) cycle test at a fresh state —
// key e.fpBuf, state hash h, the identity the cache visit reads
// next — and records the state on the live stack. It reports true when
// the path ended in a livelock leaf.
func (e *engine) liveCheck(depth int, h uint64) bool {
	e.liveStack.Truncate(depth)
	if i, ok := e.liveStack.Lookup(h, e.fpBuf); ok {
		if e.progCountAt(depth)-e.liveMeta[i].progCount == 0 {
			e.leafLivelock(i, nil, nil)
			return true
		}
		// A cycle containing progress is benign. Fall through: with a
		// state cache the revisit prunes right after; without one the
		// depth bound cuts the unrolling.
	}
	e.liveStack.Push(depth, h, e.fpBuf)
	e.liveMetaSet(depth, len(e.base)+len(e.stack))
	return false
}

// leafLivelock ends the current path with a livelock incident whose
// decisions replay the whole lasso: the current path's decisions
// (stem + the blue part of the cycle), extended by the red search's
// decisions when the cycle closes through a pruned region. i is the
// live-stack depth the cycle closes into.
func (e *engine) leafLivelock(i int, redDecs []Decision, redTrace []interp.Event) {
	decs := e.pathDecisions()
	decs = append(decs, redDecs...)
	for _, ev := range redTrace {
		e.pushTrace(ev)
	}
	cs := e.liveMeta[i].decIdx
	msg := fmt.Sprintf("non-progress cycle: %d-decision cycle closing to depth %d (stem %d decisions)",
		len(decs)-cs, i, cs)
	e.lasso = &lassoSample{decisions: decs, cycleStart: cs}
	e.leaf(LeafLivelock, msg)
	e.lasso = nil
}

// redSearch runs the nested (red) half of the search at a cache-pruned
// state: the blue DFS stops here because the state was fully explored
// on an earlier path, but a non-progress cycle through it may still
// close into the current path over that earlier territory. A bounded DFS
// follows only non-progress transitions from the pruned state, looking
// for an on-stack state whose on-path suffix is also progress-free. It
// steps the engine's own machine and undoes each edge, which leaves the
// machine in the red state only when a livelock leaf ends the path (the
// next path's undo to an entry's mark unwinds that too); a machine whose
// marks are dead (the reference) steps a fork per edge instead. Toss
// choices inside the red region always take
// outcome 0 (recorded, so the witness replays); toss-dependent cycles
// beyond that are missed, never misreported. Reports true when the
// path ended in a livelock leaf; a search that ends without one because
// RedStateBudget ran out — or the machine dropped its trail under it —
// is counted in Report.RedCut. A red state
// allocates nothing: its key goes into the engine's key scratch (free
// once the cache has answered) and is copied only by the seen set, and
// the seen set and pending tables outlive the search.
func (e *engine) redSearch(depth int) bool {
	// progCount is monotone along the stack, so the on-stack states
	// whose suffix to here is progress-free form exactly the suffix
	// [minIdx..depth].
	pc := e.liveMeta[depth].progCount
	minIdx := sort.Search(depth+1, func(i int) bool {
		return e.liveMeta[i].progCount >= pc
	})
	remaining := e.opt.MaxDepth - depth
	if remaining <= 0 {
		return false
	}
	e.rep.RedSearches++
	budget, cut := RedStateBudget, false
	e.redSeen.Reset()
	var decs []Decision
	var trace []interp.Event
	ch := interp.ChooserFunc(func(bound int) (int, bool) {
		decs = append(decs, Decision{Toss: true, Value: 0})
		return 0, true
	})
	// dfs expands red level rd, the state m reached by stepping from the
	// level above (from; -1 at the pruned state, whose table is e.pend).
	var dfs func(m interp.Machine, rd, from int) bool
	dfs = func(m interp.Machine, rd, from int) bool {
		if rd >= remaining {
			return false
		}
		if rd == len(e.redPend) {
			e.redPend = append(e.redPend, nil)
		}
		if from < 0 {
			e.redPend[rd] = append(e.redPend[rd][:0], e.pend...)
		} else {
			e.redPend[rd] = m.PatchPending(append(e.redPend[rd][:0], e.redPend[rd-1]...), from)
		}
		for p, pd := range e.redPend[rd] {
			if pd.Flags&interp.PendEnabled == 0 {
				continue
			}
			if budget <= 0 {
				cut = true
				return false
			}
			if pd.Flags&interp.PendProgress != 0 {
				continue
			}
			budget--
			e.rep.RedStates++
			nd, nt := len(decs), len(trace)
			decs = append(decs, Decision{Value: p})
			mk, fm := e.takeMark(), m
			if mk == (interp.Mark{}) {
				fm = m.ForkMachine()
			}
			ev, out := fm.Step(p, ch)
			trace = append(trace, ev)
			if out == nil {
				var fpLen int
				e.fpBuf, fpLen = fm.AppendKey(e.fpBuf[:0], e.segs)
				h := fm.StateHash()
				if i, ok := e.liveStack.Lookup(h, e.fpBuf); ok && i >= minIdx {
					e.leafLivelock(i, decs, trace)
					return true
				}
				// The set is per search: red reachability is judged against
				// the current blue stack, which differs per path.
				if !e.redSeen.VisitCharged(h, e.fpBuf, fpLen, 0) && dfs(fm, rd+1, p) {
					return true
				}
			}
			// An abnormal outcome inside the red region ends that red
			// branch only: the region was already explored by the blue
			// search, which reported (or will report) the incident.
			decs = decs[:nd]
			trace = trace[:nt]
			if _, ok := m.Undo(mk); fm == m && !ok {
				// The machine dropped its log under the search and is not
				// back at this level's state: the search cannot go on.
				budget, cut = 0, true
			}
		}
		return false
	}
	if dfs(e.sys, 0, -1) {
		return true
	}
	if cut {
		e.rep.RedCut++
	}
	return false
}
