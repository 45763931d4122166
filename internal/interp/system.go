package interp

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"

	"reclose/internal/cfg"
	"reclose/internal/comm"
)

// OutcomeKind classifies abnormal results of executing program steps.
type OutcomeKind int

// Outcome kinds.
const (
	OutViolation  OutcomeKind = iota // VS_assert with a false argument
	OutTrap                          // runtime error (type error, division by zero, ...)
	OutDivergence                    // invisible-step budget exhausted inside one transition
	OutNeedToss                      // the Chooser had no outcome for a VS_toss
)

// Outcome describes an abnormal result. A nil *Outcome means the step
// completed normally.
type Outcome struct {
	Kind      OutcomeKind
	Msg       string
	Proc      int // process index
	TossBound int // for OutNeedToss
}

// String renders the outcome.
func (o *Outcome) String() string {
	switch o.Kind {
	case OutViolation:
		return fmt.Sprintf("assertion violated in process %d: %s", o.Proc, o.Msg)
	case OutTrap:
		return fmt.Sprintf("runtime error in process %d: %s", o.Proc, o.Msg)
	case OutDivergence:
		return fmt.Sprintf("divergence in process %d: %s", o.Proc, o.Msg)
	case OutNeedToss:
		return fmt.Sprintf("process %d needs a VS_toss outcome in [0,%d]", o.Proc, o.TossBound)
	}
	return "unknown outcome"
}

// Status is a process's lifecycle state.
type Status int

// Process statuses.
const (
	Running    Status = iota
	Terminated        // reached a top-level return or an exit
)

// Proc is one process instance.
type Proc struct {
	Index   int
	TopProc string

	stack  []*frame
	cur    *cfg.Node
	status Status
	// vis is the visible operation the process is stopped at, nil when it
	// is at none: a function of cur and status, looked up by whoever moved
	// the process (settle), so that reading a state walks no CFG. own is
	// the Pending bit that is the process's: PendDaemon.
	vis *visOp
	own uint8

	// seg is the process's part of the state fingerprint as last
	// rendered, current while segOK (hash.go says who clears the bit);
	// segID is its id in the segment table, 0 when not looked up.
	seg   []byte
	segOK bool
	segID uint32
}

// Status returns the process's lifecycle state.
func (p *Proc) Status() Status { return p.status }

// At returns the procedure name and node ID the process is stopped at
// (its pending visible operation), or ("", -1) if terminated.
func (p *Proc) At() (proc string, node int) {
	if p.status != Running || p.cur == nil {
		return "", -1
	}
	return p.stack[len(p.stack)-1].code.name, p.cur.ID
}

// PendingOp returns the visible operation the process is about to
// execute: the builtin name and the object it targets ("" for
// VS_assert). It returns ok == false if the process is terminated.
func (p *Proc) PendingOp() (op, object string, ok bool) {
	if p.vis == nil {
		return "", "", false
	}
	return p.vis.opName, p.vis.objName, true
}

// settle looks up the visible operation p has come to rest at.
func (p *Proc) settle() {
	p.vis = nil
	if p.status == Running && p.cur != nil && p.cur.Kind == cfg.NCall {
		p.vis = p.stack[len(p.stack)-1].code.nodes[p.cur.ID].vis
	}
}

// Event is one visible operation in an execution trace.
type Event struct {
	Proc   int
	Op     string
	Object string // empty for VS_assert
	Value  Value  // value sent, received, written, read, or asserted
	HasVal bool
	Stub   bool // operation on an env-facing stub
}

// String renders the event deterministically, e.g. "P0:send(work)=3".
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P%d:%s", e.Proc, e.Op)
	if e.Object != "" {
		fmt.Fprintf(&b, "(%s)", e.Object)
	}
	if e.HasVal {
		fmt.Fprintf(&b, "=%s", e.Value)
	}
	return b.String()
}

// System is an executable instance of a closed unit: the communication
// objects plus one Proc per process declaration. It executes the
// bytecode module of the unit's Resolution (resolve.go, bytecode.go)
// over dense slot frames, so the per-step cost carries no map lookups
// or AST walks.
type System struct {
	Unit  *cfg.Unit
	Procs []*Proc

	res *Resolution
	// objs holds the communication objects in the resolution's dense
	// order (Numbering.Objects); a visOp's pend.Obj indexes into it.
	objs []comm.Object

	// bc is the resolution's bytecode module, run by the dispatch loop
	// in bcexec.go.
	bc *bcModule
	// regs is the shared expression register file (bcModule.maxRegs
	// wide); registers are dead across node boundaries, so one file
	// serves every frame.
	regs []Value
	// pool is the free list of popped, unpinned frames: filled by
	// returns and Reset, drawn on by calls.
	pool []*frame
	// tr is the write trail Mark and Undo work on (trail.go).
	tr trail

	// Incremental state identity (hash.go), maintained while hashOn: the
	// rolling cell accumulator, per-object hashes and key segments, the
	// segments' ids in tab (0: not looked up), and the full hash walk's
	// scratch buffer.
	hashOn   bool
	acc      uint64
	objHash  []uint64
	objSeg   [][]byte
	objID    []uint32
	tab      SegmentTable
	objFpBuf []byte
	// nd batches dispatched-instruction counts between metric flushes.
	nd int64

	// MaxInvisible bounds the invisible operations inside one transition;
	// exceeding it reports divergence (the paper's VeriSoft uses a
	// timeout for the same purpose).
	MaxInvisible int

	// met carries the optional instrument counters (SetMetrics); the
	// zero value is fully disabled.
	met Metrics
}

// DefaultMaxInvisible is the default divergence bound.
const DefaultMaxInvisible = 100000

// maxCallDepth bounds the interpreter call stack.
const maxCallDepth = 10000

// NewSystem builds a System for a closed unit. Open units (with declared
// environment parameters or env-facing channels that have not been
// closed or stubbed) are rejected: they are not self-executable.
//
// A System never mutates the unit or its AST: multiple Systems built
// over the same *cfg.Unit may execute concurrently (one per goroutine),
// which is what the parallel explorer's per-worker replay relies on. A
// single System is not safe for concurrent use. Callers instantiating
// many Systems over one unit should Resolve once and call
// Resolution.NewSystem per instance to share the compiled code.
func NewSystem(u *cfg.Unit) (*System, error) {
	r, err := Resolve(u)
	if err != nil {
		return nil, err
	}
	return r.NewSystem(), nil
}

// NewSystem instantiates a fresh System over the shared compiled code
// (the bytecode module is compiled on first use). The returned System is
// independent of any other instance.
func (r *Resolution) NewSystem() *System {
	mod := r.ensureBytecode()
	s := &System{
		Unit: r.unit,
		res:  r,
		bc:   mod,
		// Fragment convention: register 0 always exists.
		regs:         make([]Value, max(mod.maxRegs, 1)),
		MaxInvisible: DefaultMaxInvisible,
	}
	objs := comm.Build(r.unit.Objects, func(i int64) any { return IntVal(i) })
	s.objs = make([]comm.Object, len(r.num.Objects))
	for i, name := range r.num.Objects {
		s.objs[i] = objs[name]
	}
	s.objHash, s.objSeg = make([]uint64, len(s.objs)), make([][]byte, len(s.objs))
	s.objID = make([]uint32, len(s.objs))
	s.Reset()
	return s
}

// Resolution returns the compiled unit the system executes.
func (s *System) Resolution() *Resolution { return s.res }

// Reset restores the initial program state: objects reset in place and
// all processes at the start nodes of their top-level procedures. The
// explorer Resets once per explored path, so this is a hot path: Procs
// and unpinned root frames are reused in place (re-zeroing a cell
// installs a fresh Value header and never mutates an old array backing,
// so payloads recorded in events or captured by forks stay intact —
// the same argument as getFrame). A pinned root frame — cells
// address-taken, possibly still read through recorded pointer values —
// is abandoned to the garbage collector and replaced. The processes
// still need their initial invisible prefixes run; use Init.
func (s *System) Reset() {
	s.dropTrail()
	for _, o := range s.objs {
		o.Reset()
	}
	reuse := len(s.Procs) == len(s.Unit.Processes)
	if !reuse {
		s.Procs = s.Procs[:0]
	}
	fresh := 0
	for i, top := range s.Unit.Processes {
		pc := s.res.procs[top]
		var p *Proc
		if reuse {
			p = s.Procs[i]
			// Frames abandoned above the root (a path that ended inside
			// nested calls) go back to the pool; putFrame skips pinned
			// ones.
			for k := len(p.stack) - 1; k >= 1; k-- {
				s.putFrame(p.stack[k])
				p.stack[k] = nil
			}
		} else {
			p = &Proc{Index: i, TopProc: top}
			if s.Unit.Daemons[i] {
				p.own = PendDaemon
			}
			s.Procs = append(s.Procs, p)
		}
		var fr *frame
		if reuse && len(p.stack) > 0 && !p.stack[0].pinned {
			fr = p.stack[0]
			for j := range fr.cells {
				fr.cells[j] = Cell{V: Value{Kind: KInt}}
			}
			fr.callNode, fr.retPC = -1, -1
		} else {
			fr = &frame{code: pc, cells: newCells(pc.nSlots()), callNode: -1, retPC: -1}
			fresh++
		}
		p.stack = append(p.stack[:0], fr)
		p.cur = pc.g.Entry
		p.status = Running
		p.settle()
	}
	s.met.Frames.Add(int64(fresh))
	if s.hashOn {
		s.rebuildHash()
	}
}

// Object returns the named communication object.
func (s *System) Object(name string) comm.Object {
	if i := s.res.num.Object(name); i >= 0 {
		return s.objs[i]
	}
	return nil
}

// Init runs every process's initial invisible prefix up to its first
// visible operation (or termination), reaching the initial global state
// s0 of the paper. It must be called once after Reset.
func (s *System) Init(ch Chooser) *Outcome {
	for _, p := range s.Procs {
		s.logStep(p)
		p.segOK = false
		out := s.advance(p, ch)
		p.settle()
		if out != nil {
			return out
		}
	}
	return nil
}

// catchOutcome converts internal trap/needToss panics into outcomes.
func catchOutcome(proc int, out **Outcome) {
	r := recover()
	if r == nil {
		return
	}
	switch r := r.(type) {
	case trap:
		*out = &Outcome{Kind: OutTrap, Msg: r.msg, Proc: proc}
	case needToss:
		*out = &Outcome{Kind: OutNeedToss, TossBound: r.bound, Proc: proc}
	default:
		panic(r)
	}
}

// Enabled reports whether process i's pending visible operation can
// execute without blocking.
func (s *System) Enabled(i int) bool {
	vis := s.Procs[i].vis
	return vis != nil && s.canRun(vis)
}

// canRun reports whether the visible operation vis can execute without
// blocking in the current state of its object.
func (s *System) canRun(vis *visOp) bool {
	if vis.op == opAssert {
		return true
	}
	if vis.pend.Obj < 0 || !vis.kindOK {
		// Unknown object or kind-mismatched operation: permanently
		// disabled (the reference dispatches to Object.Enabled, which
		// returns false for an operation the object does not support).
		return false
	}
	obj := s.objs[vis.pend.Obj]
	switch vis.op {
	case opSend:
		return obj.(*comm.Chan).CanSend()
	case opRecv:
		return obj.(*comm.Chan).CanRecv()
	case opWait:
		return obj.(*comm.Sem).CanWait()
	case opSignal, opVwrite, opVread:
		return true
	}
	return false
}

// AppendEnabled appends the indices of all enabled processes to dst in
// ascending order and returns the extended slice; the caller can reuse
// dst (dst[:0]) across calls to keep scheduling allocation-free.
func (s *System) AppendEnabled(dst []int) []int {
	for i := range s.Procs {
		if s.Enabled(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Step executes one transition of process i: its pending visible
// operation followed by the invisible suffix up to the next visible
// operation. It returns the visible event and, on abnormal execution, a
// non-nil outcome. The caller must only step enabled processes.
func (s *System) Step(i int, ch Chooser) (Event, *Outcome) {
	p := s.Procs[i]
	s.logStep(p)
	p.segOK = false
	ev, out := s.execVisible(p, ch)
	if out == nil {
		out = s.advance(p, ch)
	}
	p.settle()
	return ev, out
}

// execVisible performs the visible operation p is stopped at and moves
// control past it.
func (s *System) execVisible(p *Proc, ch Chooser) (ev Event, out *Outcome) {
	defer catchOutcome(p.Index, &out)
	vis := p.vis
	if vis == nil {
		trapf("process %d is not at a visible operation", p.Index)
	}
	n := p.cur
	top := p.stack[len(p.stack)-1]
	prog := &top.code.nodes[n.ID]
	// The operands are bytecode fragments; a destination fragment takes
	// the incoming value in register 0.
	frag := top.code.bc.vis[n.ID]
	ev = Event{Proc: p.Index, Op: vis.opName}

	switch vis.op {
	case opAssert:
		v := s.runFragment(p, frag.argPC, ch)
		ev.Value, ev.HasVal = v, true
		switch v.Kind {
		case KBool:
			if !v.B {
				// Report the violation; control still moves past the
				// assertion so exploration may continue if desired.
				p.cur = prog.succ
				return ev, &Outcome{Kind: OutViolation, Proc: p.Index, Msg: vis.violation}
			}
		case KUndef:
			// An assertion whose argument was eliminated is not
			// preserved (Theorem 7); it never fires in the closed system.
		default:
			trapf("VS_assert on %s, want bool", kindName(v.Kind))
		}
	default:
		obj := s.objs[vis.pend.Obj]
		ev.Object = vis.objName
		switch vis.op {
		case opSend:
			// Arrays have value semantics: the queued payload (and the
			// recorded event) must not alias the sender's variable, or a
			// later element store would rewrite a message in flight —
			// and a state copy, which cannot keep such an alias, would
			// behave differently from the state it copied.
			v := s.runFragment(p, frag.argPC, ch).Copy()
			ev.Value, ev.HasVal = v, true
			c := obj.(*comm.Chan)
			ev.Stub = c.EnvFacing()
			if err := c.Send(boxValue(v)); err != nil {
				trapf("%v", err)
			}
			if !ev.Stub {
				s.logObj(vis, nil)
			}
		case opRecv:
			c := obj.(*comm.Chan)
			raw, stub, err := c.Recv()
			if err != nil {
				trapf("%v", err)
			}
			v := Undef
			if !stub {
				v = raw.(Value)
				s.logObj(vis, raw) // before the destination store, which may trap
			}
			ev.Value, ev.HasVal, ev.Stub = v, true, stub
			s.regs[0] = v
			s.runFragment(p, frag.dstPC, ch)
		case opWait:
			if err := obj.(*comm.Sem).Wait(); err != nil {
				trapf("%v", err)
			}
			s.logObj(vis, nil)
		case opSignal:
			s.logObj(vis, nil)
			obj.(*comm.Sem).Signal()
		case opVwrite:
			v := s.runFragment(p, frag.argPC, ch).Copy()
			ev.Value, ev.HasVal = v, true
			sh := obj.(*comm.Shared)
			s.logObj(vis, sh.Read())
			sh.Write(boxValue(v))
		case opVread:
			v := obj.(*comm.Shared).Read().(Value)
			ev.Value, ev.HasVal = v, true
			s.regs[0] = v
			s.runFragment(p, frag.dstPC, ch)
		default:
			trapf("unknown builtin %s", vis.opName)
		}
		// Refresh the mutated object's incremental hash (vread is the
		// only object op that leaves its object untouched).
		if s.hashOn && vis.op != opVread {
			s.rehashObj(int(vis.pend.Obj))
		}
	}
	p.cur = prog.succ
	return ev, nil
}

// AppendFingerprint appends the canonical state fingerprint — a
// deterministic rendering of the object states, per-process control
// points and stores — to dst and returns the extended slice: the caller
// can reuse dst across calls (dst[:0]) and hash the bytes in a
// streaming fashion, which is what the explorer's state-cache hot path
// does.
//
// Variables are walked per frame in the slot table's fixed name-sorted
// order over the full declared set — variables the path never touched
// render as their auto-created value 0 — so no per-state sorting
// happens and the output is byte-identical to the reference
// interpreter's (RefSystem.AppendFingerprint).
func (s *System) AppendFingerprint(dst []byte) []byte {
	if s.hashOn { // concatenate the key segments (hash.go)
		s.met.Keys.Inc()
		for _, seg := range s.objSeg {
			dst = append(dst, seg...)
		}
		for _, p := range s.Procs {
			dst = append(dst, s.procSeg(p)...)
		}
		return dst
	}
	for _, o := range s.objs {
		dst = o.AppendFingerprint(dst)
		dst = append(dst, ';')
	}
	for _, p := range s.Procs {
		dst = p.appendFingerprint(dst)
	}
	return dst
}

// procSeg returns p's key segment, rendering it if it is stale.
func (s *System) procSeg(p *Proc) []byte {
	if !p.segOK {
		s.met.Segs.Inc()
		p.seg, p.segOK, p.segID = p.appendFingerprint(p.seg[:0]), true, 0
	}
	return p.seg
}

// AppendKey appends the state's key under tab and returns it with the
// fingerprint's length: one uvarint id per object and process, looked up
// only if its segment was rendered since (hash.go). With hashing off the
// machine keeps no segments and its key is the fingerprint.
func (s *System) AppendKey(dst []byte, tab SegmentTable) (key []byte, rendered int) {
	if !s.hashOn || tab == nil {
		return fingerprintKey(s, dst)
	}
	if tab != s.tab { // every id, the trail's included, is another table's
		s.tab = tab
		clear(s.objID)
		for _, p := range s.Procs {
			p.segID = 0
		}
		for i := range s.tr.steps {
			s.tr.steps[i].segID = 0
		}
		for i := range s.tr.refs {
			s.tr.refs[i].id = 0
		}
	}
	s.met.Keys.Inc()
	for i, seg := range s.objSeg {
		if s.objID[i] == 0 {
			s.objID[i] = tab.Intern(s.objHash[i], seg)
		}
		dst = binary.AppendUvarint(dst, uint64(s.objID[i]))
		rendered += len(seg)
	}
	for _, p := range s.Procs {
		seg := s.procSeg(p)
		if p.segID == 0 {
			p.segID = tab.Intern(maphash.Bytes(segSeed, seg), seg)
		}
		dst = binary.AppendUvarint(dst, uint64(p.segID))
		rendered += len(seg)
	}
	return dst, rendered
}

// appendFingerprint appends the process's part of the fingerprint. It
// reads nothing outside the process: a pointer is labeled by its
// position in p's own live frames, or not at all.
func (p *Proc) appendFingerprint(dst []byte) []byte {
	dst = append(dst, '|', 'P')
	dst = strconv.AppendInt(dst, int64(p.Index), 10)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, int64(p.status), 10)
	if p.status != Running {
		return dst
	}
	for fi, f := range p.stack {
		dst = append(dst, '/')
		dst = append(dst, f.code.name...)
		if fi == len(p.stack)-1 {
			dst = append(dst, '@', 'n')
			dst = strconv.AppendInt(dst, int64(p.cur.ID), 10)
		} else {
			dst = append(dst, '@', 'c')
			dst = strconv.AppendInt(dst, int64(p.stack[fi+1].callNode), 10)
		}
		st := f.code.slots
		for _, slot := range st.Sorted {
			v := f.cells[slot].V
			dst = append(dst, ',')
			dst = append(dst, st.Names[slot]...)
			dst = append(dst, '=')
			if v.Kind == KPtr {
				dst = append(dst, '&')
				dst = appendCellLabel(dst, p, v.Ptr.Cell)
				if v.Ptr.Elem >= 0 {
					dst = append(dst, '[')
					dst = strconv.AppendInt(dst, int64(v.Ptr.Elem), 10)
					dst = append(dst, ']')
				}
			} else {
				dst = v.AppendString(dst)
			}
		}
	}
	return dst
}

// appendCellLabel appends the stable label "f<frame>.<name>" of the cell
// within p's live frames (the same labels the reference interpreter
// assigns). A cell not in any live frame — a pointer into a popped frame
// or another process — gets no label, matching the reference's behavior
// for cells missing from its label map.
func appendCellLabel(dst []byte, p *Proc, c *Cell) []byte {
	if fi, i := p.locate(c); fi >= 0 {
		dst = append(dst, 'f')
		dst = strconv.AppendInt(dst, int64(fi), 10)
		dst = append(dst, '.')
		dst = append(dst, p.stack[fi].code.slots.Names[i]...)
	}
	return dst
}
