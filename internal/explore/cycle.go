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
//     cross edge the blue check cannot see. A bounded DFS follows only
//     non-progress transitions from the pruned state, looking for any
//     on-stack state whose on-path suffix is also progress-free;
//     reaching one exhibits a lasso whose cycle runs partly over the
//     blue path and partly over the red extension. A search the bound
//     stops is counted (Report.RedCut): the verdict says how many there
//     were. The searches share a memo of the non-progress graph, so the
//     machine steps (and undoes) only onto states no red search has met
//     before: the rest of a search is a walk over remembered edges.
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
	"reclose/internal/statecache"
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
			e.leafLivelock(i, nil)
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
// decisions when the cycle closes through a pruned region (whose events
// the red search has pushed). i is the live-stack depth the cycle closes
// into.
func (e *engine) leafLivelock(i int, redDecs []Decision) {
	decs := e.pathDecisions()
	decs = append(decs, redDecs...)
	cs := e.liveMeta[i].decIdx
	msg := fmt.Sprintf("non-progress cycle: %d-decision cycle closing to depth %d (stem %d decisions)",
		len(decs)-cs, i, cs)
	e.lasso = &lassoSample{decisions: decs, cycleStart: cs}
	e.leaf(LeafLivelock, msg)
	e.lasso = nil
}

// redSearch runs the nested (red) half of the search at a cache-pruned
// state, whose hash is h and key key: the blue DFS stops here because the
// state was fully explored on an earlier path, but a non-progress cycle
// through it may still close into the current path over that earlier
// territory. A bounded DFS follows only non-progress transitions from the
// pruned state, looking for an on-stack state whose on-path suffix is
// also progress-free. Toss choices inside the red region always take
// outcome 0 (recorded, so the witness replays); toss-dependent cycles
// beyond that are missed, never misreported. Reports true when the path
// ended in a livelock leaf; a search that ends without one because
// RedStateBudget ran out — or the machine dropped its trail under it —
// is counted in Report.RedCut.
//
// The DFS walks the engine's memo of the non-progress graph (redWalk)
// and steps the machine only to learn an edge the memo lacks, or to
// re-step a found lasso's red part for its events; which states it
// visits, in which order, and what it counts do not depend on what the
// memo knew. On a warm memo a search allocates nothing, and the machine
// is back in the pruned state afterwards unless a livelock leaf ended
// the path (the next path's undo to an entry's mark unwinds that too).
func (e *engine) redSearch(depth int, h uint64, key []byte) bool {
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
	r := e.red
	if e.opt.testFreshRedMemo || e.opt.MaxCacheBytes > 0 && r.bytes > e.opt.MaxCacheBytes {
		r.empty()
	}
	// The seen set is per search: red reachability is judged against the
	// current blue stack, which differs per path.
	r.stamp++
	r.budget, r.cut, r.minIdx, r.remaining = RedStateBudget, false, minIdx, remaining
	r.decs = r.decs[:0]
	r.path = append(r.path[:0], redLevel{node: r.node(h, key), m: e.sys})
	r.at = 0
	if e.redDFS(0) {
		return true
	}
	e.redMachine(0) // back to the pruned state
	if r.cut {
		e.rep.RedCut++
	}
	return false
}

// The red search's memo. What a red search reads of a state — its enabled
// processes in table order, which of them are progress, and for each
// non-progress one the state its transition leads to (or that it ends
// abnormally) and the toss decisions it makes, every toss taking outcome
// 0 — is a function of the state's key. The engine keeps it for the whole
// search, one node per distinct state a red search has reached, so every
// red search after the first that meets a state walks its edges instead
// of executing them: the searches of a run meet a few thousand distinct
// states tens of times each.

// redUnknown and redAbnormal are a row's successor before its transition
// first ran, and after a transition that ended abnormally.
const (
	redUnknown  int32 = -1
	redAbnormal int32 = -2
)

// redNodeOverhead is what a memo node is charged beyond its key: the
// state cache's charge for an entry, so that MaxCacheBytes bounds the
// memo at the cache's rate.
const redNodeOverhead = 96

// redRow is one enabled process of a memo node.
type redRow struct {
	proc     int32
	tosses   int32 // the toss decisions its transition made
	succ     int32 // the node it leads to, redUnknown or redAbnormal
	progress bool
}

// redNode is one state red searches have reached. Its rows are unknown
// (rows < 0) until a red search expands it.
type redNode struct {
	key         []byte // the id table's copy
	hash        uint64
	rows, nrows int32  // its enabled processes: redWalk.rows[rows:rows+nrows]
	stamp       uint32 // the last red search that reached it
}

// redLevel is one state of the current red path.
type redLevel struct {
	node int32
	row  int32 // the row the path leaves it by
	// m is a machine in the level's state, nil until the walk brought one
	// there; mk is m's mark for it once m has stepped on. A machine whose
	// marks are dead (the reference, or replay-only backtracking) keeps
	// m unstepped and steps forks of it instead.
	m  interp.Machine
	mk interp.Mark
}

// redWalk is an engine's red search: the memo, kept across searches,
// and the walk's storage.
type redWalk struct {
	// ids maps a state's key to its node (id − 1): the memo's exact
	// index, emptied with the memo.
	ids   *statecache.Segments
	nodes []redNode
	rows  []redRow
	bytes int64 // the nodes' charge: key length plus redNodeOverhead each
	stamp uint32

	path      []redLevel
	decs      []Decision // the red path's decisions
	pend      []interp.Pending
	at        int // the path level the engine's own machine is in; -1 for none
	budget    int
	cut       bool
	minIdx    int
	remaining int
	tosses    int32 // the toss decisions of the transition running on ch
	ch        interp.Chooser
}

// newRedWalk returns an empty memo with its toss-counting chooser.
func newRedWalk() *redWalk {
	r := &redWalk{ids: new(statecache.Segments)}
	r.ch = interp.ChooserFunc(func(int) (int, bool) {
		r.tosses++
		return 0, true
	})
	return r
}

// node returns the node of the state with key key and hash h, entering it
// on first sight.
func (r *redWalk) node(h uint64, key []byte) int32 {
	id := r.ids.Intern(h, key)
	if int(id) > len(r.nodes) {
		r.nodes = append(r.nodes, redNode{key: r.ids.Text(id), hash: h, rows: -1})
		r.bytes += int64(len(key)) + redNodeOverhead
	}
	return int32(id) - 1
}

// empty forgets every node. It runs between red searches only: a search
// reads the memo's stamps as its seen set.
func (r *redWalk) empty() {
	r.ids = new(statecache.Segments)
	r.nodes, r.rows, r.bytes = r.nodes[:0], r.rows[:0], 0
}

// redDFS expands red level rd: it follows the non-progress rows of the
// level's state in table order, each to a state not seen in this search.
// Every row costs one unit of budget and one RedStates, whether the memo
// knows where it leads or the machine has to find out.
func (e *engine) redDFS(rd int) bool {
	r := e.red
	if rd >= r.remaining {
		return false
	}
	n := r.path[rd].node
	if r.nodes[n].rows < 0 && !e.redOpen(rd) {
		return false
	}
	lo := r.nodes[n].rows
	for i := lo; i < lo+r.nodes[n].nrows; i++ {
		if r.budget <= 0 {
			r.cut = true
			return false
		}
		if r.rows[i].progress {
			continue
		}
		r.budget--
		e.rep.RedStates++
		var stepped interp.Machine
		if r.rows[i].succ == redUnknown {
			if stepped = e.redExpand(rd, i); stepped == nil {
				return false
			}
		}
		row := r.rows[i]
		nd := len(r.decs)
		r.decs = append(r.decs, Decision{Value: int(row.proc)})
		for range row.tosses {
			r.decs = append(r.decs, Decision{Toss: true})
		}
		r.path[rd].row = i
		// An abnormal outcome inside the red region ends that red branch
		// only: the region was already explored by the blue search, which
		// reported (or will report) the incident.
		if row.succ >= 0 {
			s := &r.nodes[row.succ]
			if d, ok := e.liveStack.Lookup(s.hash, s.key); ok && d >= r.minIdx {
				return e.redWitness(rd, d)
			}
			if s.stamp != r.stamp {
				s.stamp = r.stamp
				r.path = append(r.path[:rd+1], redLevel{node: row.succ, m: stepped})
				switch {
				case stepped == e.sys:
					r.at = rd + 1
				case r.at > rd:
					r.at = -1 // in a state the walk has left
				}
				if e.redDFS(rd + 1) {
					return true
				}
			}
		}
		r.decs = r.decs[:nd]
	}
	return false
}

// redOpen enters red level rd's rows into the memo: the enabled processes
// of the engine's pending table at the pruned state, of the machine's
// anywhere else. It reports false when the machine cannot be brought
// there.
func (e *engine) redOpen(rd int) bool {
	r := e.red
	pend := e.pend
	if rd > 0 {
		m := e.redMachine(rd)
		if m == nil {
			return false
		}
		r.pend = m.AppendPending(r.pend[:0])
		pend = r.pend
	}
	n := &r.nodes[r.path[rd].node]
	n.rows = int32(len(r.rows))
	for p, pd := range pend {
		if pd.Flags&interp.PendEnabled != 0 {
			r.rows = append(r.rows, redRow{proc: int32(p), succ: redUnknown, progress: pd.Flags&interp.PendProgress != 0})
		}
	}
	n.nrows = int32(len(r.rows)) - n.rows
	return true
}

// redExpand runs row i of red level rd for the first time and records
// where it leads. It returns the machine in the state it led to, or nil
// when the machine cannot be brought to the level.
func (e *engine) redExpand(rd int, i int32) interp.Machine {
	r := e.red
	m := e.redMachine(rd)
	if m == nil {
		return nil
	}
	m, out := e.redStep(rd, m, r.rows[i].proc)
	succ := redAbnormal
	if out == nil {
		e.fpBuf, _ = m.AppendKey(e.fpBuf[:0], e.segs)
		succ = r.node(m.StateHash(), e.fpBuf)
	}
	r.rows[i].succ, r.rows[i].tosses = succ, r.tosses
	return m
}

// redMachine brings a machine into the state of red level t, the deepest
// on the path or the pruned state, and returns it: it undoes the engine's
// machine to the deepest level it has marked, unless it is already there,
// or takes the deepest level's fork, and steps the path's remembered
// edges from there. Nil means the machine dropped its log under the
// search and cannot get back: the search is cut.
func (e *engine) redMachine(t int) interp.Machine {
	r := e.red
	k := t
	for r.path[k].m == nil {
		k--
	}
	m := r.path[k].m
	if mk := r.path[k].mk; mk != (interp.Mark{}) && r.at != k {
		if _, ok := m.Undo(mk); !ok {
			r.budget, r.cut = 0, true
			return nil
		}
		r.at = k
	}
	for ; k < t; k++ {
		var out *interp.Outcome
		if m, out = e.redStep(k, m, r.rows[r.path[k].row].proc); out != nil {
			panic(fmt.Sprintf("explore: red memo edge ended abnormally on replay: %v", out))
		}
		r.path[k+1].m = m
		if m == e.sys {
			r.at = k + 1
		}
	}
	return m
}

// redStep executes process p from red level k's state, which m is in: on
// m itself under a mark for the level, or on a fork of m when marks are
// dead. Tosses take outcome 0 and are counted in r.tosses.
func (e *engine) redStep(k int, m interp.Machine, p int32) (interp.Machine, *interp.Outcome) {
	r := e.red
	if mk := e.takeMark(); mk != (interp.Mark{}) {
		r.path[k].mk, r.at = mk, -1
	} else {
		m = m.ForkMachine(&e.tal)
	}
	r.tosses = 0
	e.rep.RedSteps++
	_, out := m.Step(int(p), r.ch)
	return m, out
}

// redWitness ends the path in the livelock whose red part is the red path
// down to level rd and its row out of it, closing into live-stack depth
// d: it re-steps that part from the pruned state, which leaves the
// machine in the red state. The witness is the lasso's decisions; its
// trace is rebuilt from them (replay.go). A machine that dropped its log
// under the search cannot get back to step it, and finds no livelock.
func (e *engine) redWitness(rd, d int) bool {
	r := e.red
	m := e.redMachine(0)
	if m == nil {
		return false
	}
	for k := 0; k <= rd; k++ {
		m, _ = e.redStep(k, m, r.rows[r.path[k].row].proc)
	}
	e.leafLivelock(d, r.decs)
	return true
}
