package explore

import (
	"sync"
	"sync/atomic"

	"reclose/internal/interp"
)

// workUnit is the unit of search work: a decision prefix reaching a
// scheduling point, the sibling options pending at that point, and the
// index of the first option this unit covers. A worker claiming a unit
// with several remaining options splits it — it pushes back a unit for
// options[from+1:] and explores only options[from] — so every sibling
// subtree of a spilled decision point becomes exactly one unit,
// independent of which worker claims what when.
//
// All slices — the sleep set included — are immutable once published:
// units are shared between goroutines read-only.
type workUnit struct {
	prefix  []Decision
	options []int
	objs    []int32 // per option, the object index (see entry.objs)
	sleep   sleepSet
	from    int
	root    bool // the initial unit: empty prefix, whole tree
	// toss marks a unit whose decision point is a VS_toss rather than a
	// scheduling choice (only produced by residualUnits — spilling
	// happens at scheduling points). For toss units, sleep carries the
	// pending sleep context of the interrupted step instead of the
	// decision point's inherited sleep set.
	toss bool
	// cont marks a continuation unit: the prefix reaches a state whose
	// exploration had not started when the search was cut; there is no
	// pre-positioned decision point, and sleep is the pending sleep set
	// of that state.
	cont bool

	// stack, when non-empty, makes this a stack-continuation unit
	// (dynamic POR): a deep copy of a whole DFS stack (entry.copyFrom) —
	// cursors, sleep contexts, and still-growing backtrack sets included —
	// claimed as one piece by one engine, which rebuilds the stack from
	// copies and continues. options/objs/from are unused (rest() is
	// false: the unit never splits, so backtrack insertions stay
	// engine-local). sleep is the base sleep context under the stack.
	stack []*entry

	// snap, when Options.SnapshotSpill is set, is a forked machine
	// pinned at the unit's decision point, taken by the spilling
	// worker. A claiming engine forks snap again and continues
	// from it, skipping the prefix replay entirely; snap itself is
	// never mutated and is shared by every split of the unit. Nil for
	// replay-mode units — residual and checkpoint-restored units always
	// replay (checkpoints serialize prefixes, not snapshots).
	snap interp.Machine
}

// rest reports whether sibling options beyond from remain to be split
// off.
func (u *workUnit) rest() bool {
	return !u.root && !u.cont && u.from+1 < len(u.options)
}

// split returns the unit covering this unit's remaining sibling options
// (from+1:), to be explored independently of options[from].
func (u *workUnit) split() *workUnit {
	return &workUnit{
		prefix:  u.prefix,
		options: u.options,
		objs:    u.objs,
		sleep:   u.sleep,
		from:    u.from + 1,
		toss:    u.toss,
		snap:    u.snap,
	}
}

// decisionArena allocates the decision-prefix slices that spilled work
// units publish to the frontier. Spill prefixes are immutable once
// published and live until their unit (and every split of it) is done,
// so the arena never recycles: it carves fixed-capacity slices out of
// large chunks, replacing one short-lived allocation per spill with one
// per chunk. Each engine owns a private arena — no synchronization.
type decisionArena struct {
	buf []Decision
}

// decisionArenaChunk is the chunk size in decisions.
const decisionArenaChunk = 4096

// alloc returns an empty slice with capacity exactly n, carved from the
// current chunk: the full-slice expression pins the capacity so a
// consumer appending past n can never clobber a neighboring prefix.
func (a *decisionArena) alloc(n int) []Decision {
	if n > decisionArenaChunk {
		return make([]Decision, 0, n)
	}
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]Decision, 0, decisionArenaChunk)
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off:off:(off + n)]
}

// frontierShard is one lock-sharded LIFO stack of work units. The
// padding keeps shards on distinct cache lines.
type frontierShard struct {
	mu    sync.Mutex
	units []*workUnit
	_     [64]byte
}

// frontier is the search's work pool, at every worker count: one shard
// per worker. A worker pushes and pops its own shard LIFO (preserving
// depth-first locality — with a single worker that is exactly the
// classic depth-first order) and steals the oldest unit (FIFO) from
// sibling shards when its own is empty — stolen units are the
// shallowest, i.e. the largest subtrees.
type frontier struct {
	shards []frontierShard

	// inflight counts units pushed but not yet fully processed; the
	// search is complete when it reaches zero. queued counts units
	// currently sitting in some shard.
	inflight atomic.Int64
	queued   atomic.Int64

	shared *sharedState // the search's stop and pause flags

	// met carries the search's shared instruments (noMetrics when
	// disabled): spill-queue and in-flight high-water gauges, steal
	// counts.
	met *exploreMetrics

	mu   sync.Mutex // guards cond only; shard data has its own locks
	cond *sync.Cond
}

func newFrontier(shards int, shared *sharedState, met *exploreMetrics) *frontier {
	f := &frontier{shards: make([]frontierShard, shards), shared: shared, met: met}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// push publishes a unit on the given worker's shard and wakes one
// sleeping worker. Signalling under f.mu pairs with the re-check inside
// claim's wait loop, so a wakeup cannot be lost.
func (f *frontier) push(worker int, u *workUnit) {
	f.met.frontierInflight.SetMax(f.inflight.Add(1))
	s := &f.shards[worker%len(f.shards)]
	s.mu.Lock()
	s.units = append(s.units, u)
	s.mu.Unlock()
	f.met.frontierQueued.SetMax(f.queued.Add(1))
	f.mu.Lock()
	f.cond.Signal()
	f.mu.Unlock()
}

// claim blocks until a unit is available and returns it, or returns nil
// when the search is over (no units queued or in flight), is stopping,
// or is pausing for a checkpoint. The caller must call done exactly
// once per claimed unit.
func (f *frontier) claim(worker int) *workUnit {
	for {
		if f.shared.yielding() {
			return nil
		}
		if u := f.take(worker); u != nil {
			return u
		}
		f.mu.Lock()
		for f.queued.Load() == 0 && f.inflight.Load() > 0 && !f.shared.yielding() {
			f.cond.Wait()
		}
		f.mu.Unlock()
		if f.queued.Load() == 0 && f.inflight.Load() == 0 {
			return nil
		}
	}
}

// take pops the newest unit from the worker's own shard, else steals
// the oldest unit from a sibling shard.
func (f *frontier) take(worker int) *workUnit {
	n := len(f.shards)
	home := worker % n
	s := &f.shards[home]
	s.mu.Lock()
	if k := len(s.units); k > 0 {
		u := s.units[k-1]
		s.units[k-1] = nil
		s.units = s.units[:k-1]
		s.mu.Unlock()
		f.queued.Add(-1)
		return u
	}
	s.mu.Unlock()
	for i := 1; i < n; i++ {
		v := &f.shards[(home+i)%n]
		v.mu.Lock()
		if len(v.units) > 0 {
			u := v.units[0]
			v.units = v.units[1:]
			v.mu.Unlock()
			f.queued.Add(-1)
			f.met.unitsStolen.Inc()
			return u
		}
		v.mu.Unlock()
	}
	return nil
}

// done retires a claimed unit; the last retirement wakes every sleeping
// worker so they can observe termination.
func (f *frontier) done() {
	if f.inflight.Add(-1) == 0 {
		f.wake()
	}
}

// contents copies the units still queued (the units themselves are
// immutable), leaving the frontier as it is. It is called while no
// worker runs: the result is the unclaimed part of the search.
func (f *frontier) contents() []*workUnit {
	var out []*workUnit
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		out = append(out, s.units...)
		s.mu.Unlock()
	}
	return out
}

// wake broadcasts to all sleeping workers (termination, stop or pause).
func (f *frontier) wake() {
	f.mu.Lock()
	f.cond.Broadcast()
	f.mu.Unlock()
}
