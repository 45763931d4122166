package interp

import (
	"sync/atomic"

	"reclose/internal/cfg"
)

// This file is the compiled machine's write trail: the log that lets a
// search backtrack by undoing what its last path did instead of copying
// the state it wants to come back to. Mark names the machine's current
// state; from then on every write to the state is preceded by a log
// entry holding what it destroys, and Undo pops the log back to a mark,
// newest entry first. A machine nobody has marked logs nothing.
//
// What is logged (DESIGN.md §12 has the contract): a cell or element
// store, stale targets included, with the cell's hash contribution; a
// call, and a return — whose entry keeps the popped frame, so that it is
// not recycled while the log can put it back and a pointer into it means
// after the undo what it meant before; a frame's first address-taken
// cell; a termination; per Step (and per process of Init) the process's
// control point, the cell accumulator — restored whole, no cell entry
// carries it — and its key segment when valid; the invalidation of every
// key segment by a store into another process's frame; a visible
// operation on an object, by its inverse. Logging ahead of the store
// means a transition cut short by a trap, a violation or a divergence
// undoes like any other; only an object operation is logged once it has
// succeeded (a refused send must not be un-sent), with nothing that can
// trap in between.
//
// Whatever replaces the state wholesale — Reset, SetStateHashing — drops
// the log and starts a new generation, which kills every mark taken
// before; so does Mark itself on a log longer than maxTrail.

// Mark is a state of a machine that Undo can take the machine back to.
// The zero Mark is dead: no machine returns to it, and it is the only
// mark the reference interpreter gives out.
type Mark struct {
	gen uint64 // the log's generation; 0 in the dead mark only
	n   int    // the log's length at the mark
}

// SameTrail reports whether m and o were taken on one machine with its
// log not dropped in between: while either can be undone to, both can.
func (m Mark) SameTrail(o Mark) bool { return m.gen != 0 && m.gen == o.gen }

// trailGens numbers the logs of every machine in the process, so a mark
// is dead on every machine but the one it was taken on: a search that
// replaces its machine with a fork cannot undo the fork to a mark of the
// machine it gave up.
var trailGens atomic.Uint64

// maxTrail bounds the log: Mark drops one longer than this many entries,
// some 3 MiB of them (a cell entry is 48 bytes). The longest log of the
// benchmark's searches is 695 entries, under 5ess-large to depth 500.
const maxTrail = 1 << 16

// undoOp says which of the trail's typed logs an entry is in, and what
// its undo does.
type undoOp uint8

const (
	uCell undoOp = iota // cells
	uStep               // steps
	uPush               // refs: p called, f is the callee's frame
	uPop                // refs: p returned from f
	uPin                // refs: f had its first address taken
	uTerm               // refs: p terminated
	uSegs               // refs (empty): every key segment was invalidated
	uObj                // refs: operation op on object obj; v what it consumed or overwrote
)

// cellUndo is a store to c: v was at dst — c's value, or an element of
// the array in it — and hc was c's contribution.
type cellUndo struct {
	c   *Cell
	dst *Value
	v   Value
	hc  uint64
}

type stepUndo struct {
	p      *Proc
	cur    *cfg.Node
	vis    *visOp
	status Status
	acc    uint64
	seg    []byte // p's key segment when segOK, else a spare buffer
	segID  uint32
	segOK  bool
}

type refUndo struct {
	p   *Proc
	f   *frame
	v   Value
	obj int32
	id  uint32 // uObj: the id of obj's key segment before the operation
	op  builtinOp
}

// trail is a System's log. ops holds one entry per logged write, in
// order; each names the typed log its payload was appended to.
type trail struct {
	on    bool   // a mark has been taken since the log was last dropped
	gen   uint64 // a trailGens number: NewSystem's Reset drops the empty log
	ops   []undoOp
	cells []cellUndo
	steps []stepUndo
	refs  []refUndo
}

// Mark returns a mark for the current state and switches logging on.
func (s *System) Mark() Mark {
	t := &s.tr
	if len(t.ops) > maxTrail {
		s.dropTrail()
	}
	t.on = true
	return Mark{gen: t.gen, n: len(t.ops)}
}

// dropTrail forgets the log: no state before this one can be returned to.
// A log that one long transition grew past the bound gives its storage
// back rather than keeping megabytes of it for the machine's life.
func (s *System) dropTrail() {
	t := &s.tr
	t.on, t.gen = false, trailGens.Add(1)
	t.ops, t.cells, t.steps, t.refs = emptied(t.ops), emptied(t.cells), emptied(t.steps), emptied(t.refs)
}

// emptied is a typed log emptied for reuse, or released when its
// capacity has passed maxTrail entries.
func emptied[T any](log []T) []T {
	if cap(log) > maxTrail {
		return nil
	}
	return log[:0]
}

// Undo takes the machine back to the state m was taken in and reports
// how many log entries that took, or false — the machine untouched — when
// m is dead: the log it was taken on has been dropped, or the machine
// has been taken back past it since.
func (s *System) Undo(m Mark) (popped int, ok bool) {
	t := &s.tr
	if m.gen != t.gen || m.n > len(t.ops) {
		return 0, false
	}
	nc, ns, nr := len(t.cells), len(t.steps), len(t.refs)
	for i := len(t.ops) - 1; i >= m.n; i-- {
		switch op := t.ops[i]; op {
		case uCell:
			nc--
			u := &t.cells[nc]
			*u.dst, u.c.hc = u.v, u.hc
		case uStep:
			ns--
			u := &t.steps[ns]
			p := u.p
			p.cur, p.vis, p.status, s.acc = u.cur, u.vis, u.status, u.acc
			if p.segOK = u.segOK; u.segOK {
				p.seg, u.seg, p.segID = u.seg, p.seg, u.segID
			}
		default:
			nr--
			s.undoRef(op, &t.refs[nr])
		}
	}
	popped = len(t.ops) - m.n
	t.ops, t.cells, t.steps, t.refs = t.ops[:m.n], t.cells[:nc], t.steps[:ns], t.refs[:nr]
	return popped, true
}

// undoRef undoes a frame or object entry. The accumulator is left to
// the step entry below, which restores it whole.
func (s *System) undoRef(op undoOp, u *refUndo) {
	p := u.p
	switch op {
	case uPush:
		p.stack = p.stack[:len(p.stack)-1]
		// Not putFrame, whose cap is for a search that recycles at every
		// return: the next descent draws this frame again.
		s.pool = append(s.pool, u.f)
	case uPop:
		p.stack = append(p.stack, u.f)
		if s.hashOn {
			s.foldFrameIn(p, len(p.stack)-1, u.f)
		}
	case uPin:
		u.f.pinned = false
	case uTerm: // logged under hashing only
		for depth, f := range p.stack {
			s.foldFrameIn(p, depth, f)
		}
	case uSegs:
		for _, q := range s.Procs {
			q.segOK = false
		}
	case uObj:
		switch o := s.objs[u.obj]; u.op {
		case opSend:
			o.unsend()
		case opRecv:
			o.unrecv(u.v)
		case opWait:
			o.signal()
		case opSignal:
			o.unsignal()
		case opVwrite:
			o.v = u.v
		}
		if s.hashOn {
			s.rehashObj(int(u.obj))
			s.objID[u.obj] = u.id
		}
	}
}

// logCell records *dst — c's value, or an element of the array in it —
// and c's contribution.
func (s *System) logCell(c *Cell, dst *Value) {
	if t := &s.tr; t.on {
		t.ops = append(t.ops, uCell)
		t.cells = append(t.cells, cellUndo{c: c, dst: dst, v: *dst, hc: c.hc})
	}
}

// logStore records what a store through ptr will overwrite, if it is
// going to store at all (storePtr traps on the rest).
func (s *System) logStore(ptr Pointer) {
	switch c := ptr.Cell; {
	case c == nil:
	case ptr.Elem < 0:
		s.logCell(c, &c.V)
	case c.V.Kind == KArray && int64(ptr.Elem) < c.V.I:
		s.logCell(c, &c.V.Arr()[ptr.Elem])
	}
}

// logStep records p as it stands before a transition of its own.
func (s *System) logStep(p *Proc) {
	t := &s.tr
	if !t.on {
		return
	}
	t.ops = append(t.ops, uStep)
	n := len(t.steps)
	if n < cap(t.steps) {
		t.steps = t.steps[:n+1] // the slot keeps its spare buffer
	} else {
		t.steps = append(t.steps, stepUndo{})
	}
	u := &t.steps[n]
	u.p, u.cur, u.vis, u.status, u.acc = p, p.cur, p.vis, p.status, s.acc
	if u.segOK = p.segOK; p.segOK {
		p.seg, u.seg, u.segID = u.seg, p.seg, p.segID
	}
}

// logRef records a frame or object entry; op says which.
func (s *System) logRef(op undoOp, u refUndo) {
	if t := &s.tr; t.on {
		t.ops = append(t.ops, op)
		t.refs = append(t.refs, u)
	}
}

// logObj records the visible operation vis on its object, v being what
// the operation consumed or is about to overwrite, if anything.
func (s *System) logObj(vis *visOp, v Value) {
	s.logRef(uObj, refUndo{obj: vis.pend.Obj, id: s.objID[vis.pend.Obj], op: vis.op, v: v})
}
