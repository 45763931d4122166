package interp

import (
	"fmt"
	"strconv"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/sem"
)

// RefSystem is the reference interpreter: the original string-map
// implementation of the transition semantics, preserved verbatim when
// System moved to slot-resolved frames. It exists as a behavioral
// oracle — the machine judge (judge_test.go) drives a RefSystem and two
// Systems down one schedule over the same unit and asserts identical
// events, outcomes, fingerprints, hashes and pending tables — and as the
// baseline side of the interpreter benchmarks. It is not on any hot path; prefer System everywhere else.
type RefSystem struct {
	Unit  *cfg.Unit
	Procs []*RefProc

	objects map[string]*object
	num     *Numbering // num.Objects is the deterministic object order
	graphs  map[string]*refGraphInfo
	// allProgress mirrors Resolution.allProgress: no `progress` labels
	// in the unit means every visible operation counts as progress.
	allProgress bool

	// MaxInvisible bounds the invisible operations inside one
	// transition; exceeding it reports divergence.
	MaxInvisible int

	tal *Tally // SetTally; only HashFull is counted
}

// refGraphInfo caches per-procedure data the reference interpreter
// needs: the graph plus its slot table, which fixes the canonical
// variable order of fingerprints (shared with the slot-resolved
// interpreter, so both render byte-identical state).
type refGraphInfo struct {
	g     *cfg.Graph
	slots *cfg.SlotTable
}

// RefProc is one process instance of the reference interpreter.
type RefProc struct {
	Index   int
	TopProc string

	stack  []*refFrame
	cur    *cfg.Node
	status Status
}

// Status returns the process's lifecycle state.
func (p *RefProc) Status() Status { return p.status }

// At returns the procedure name and node ID the process is stopped at,
// or ("", -1) if terminated.
func (p *RefProc) At() (proc string, node int) {
	if p.status != Running || p.cur == nil {
		return "", -1
	}
	return p.stack[len(p.stack)-1].graph.g.ProcName, p.cur.ID
}

// PendingOp returns the visible operation the process is about to
// execute. It returns ok == false if the process is terminated, or
// stopped at a call to a procedure — where a transition that trapped
// mid-call, a call-stack overflow say, leaves it.
func (p *RefProc) PendingOp() (op, object string, ok bool) {
	if p.status != Running || p.cur == nil || p.cur.Kind != cfg.NCall {
		return "", "", false
	}
	cs := p.cur.CallStmt()
	b, ok := sem.Builtins[cs.Name.Name]
	if !ok {
		return "", "", false
	}
	obj := ""
	if b.HasObj {
		obj = cs.Args[0].(*ast.Ident).Name
	}
	return cs.Name.Name, obj, true
}

// PendingProgress reports whether the process's pending visible
// operation carries a `progress` label.
func (p *RefProc) PendingProgress() bool {
	return p.status == Running && p.cur != nil && p.cur.Kind == cfg.NCall &&
		p.cur.CallStmt().Progress
}

// NewRefSystem builds a reference System for a closed unit, with the
// same validity checks as NewSystem.
func NewRefSystem(u *cfg.Unit) (*RefSystem, error) {
	if u.IsOpen() {
		return nil, fmt.Errorf("interp: unit is open (declares an environment interface); close it first")
	}
	if len(u.Processes) == 0 {
		return nil, fmt.Errorf("interp: unit declares no processes")
	}
	s := &RefSystem{
		Unit:         u,
		num:          NumberUnit(u),
		graphs:       make(map[string]*refGraphInfo, len(u.Procs)),
		MaxInvisible: DefaultMaxInvisible,
		allProgress:  !HasProgressLabels(u),
		tal:          new(Tally),
	}
	for name, g := range u.Procs {
		s.graphs[name] = &refGraphInfo{g: g, slots: cfg.BuildSlotTable(g)}
	}
	s.Reset()
	return s, nil
}

// Reset restores the initial program state.
func (s *RefSystem) Reset() {
	s.objects = make(map[string]*object, len(s.Unit.Objects))
	for _, sp := range s.Unit.Objects {
		s.objects[sp.Name] = newObject(sp)
	}
	s.Procs = s.Procs[:0]
	for i, top := range s.Unit.Processes {
		gi := s.graphs[top]
		p := &RefProc{Index: i, TopProc: top}
		p.stack = []*refFrame{{graph: gi, vars: make(map[string]*Cell), callNode: -1}}
		p.cur = gi.g.Entry
		s.Procs = append(s.Procs, p)
	}
}

// Init runs every process's initial invisible prefix.
func (s *RefSystem) Init(ch Chooser) *Outcome {
	for _, p := range s.Procs {
		if out := s.advance(p, ch); out != nil {
			return out
		}
	}
	return nil
}

// advance executes invisible operations of p until the process reaches
// its next visible operation or terminates.
func (s *RefSystem) advance(p *RefProc, ch Chooser) (out *Outcome) {
	defer catchOutcome(p.Index, &out)
	steps := 0
	for {
		if p.status != Running {
			return nil
		}
		n := p.cur
		top := p.stack[len(p.stack)-1]
		ctx := &refCtx{frame: top, chooser: ch}
		steps++
		if steps > s.MaxInvisible {
			return &Outcome{Kind: OutDivergence, Proc: p.Index,
				Msg: fmt.Sprintf("more than %d invisible operations in one transition (proc %s, node n%d)",
					s.MaxInvisible, top.graph.g.ProcName, n.ID)}
		}

		switch n.Kind {
		case cfg.NStart:
			p.cur = n.Succ()
		case cfg.NAssign:
			s.execAssign(ctx, n)
			p.cur = n.Succ()
		case cfg.NCond:
			v := refEval(ctx, n.Cond)
			if v.IsUndef() {
				trapf("branch on undef (proc %s, node n%d)", top.graph.g.ProcName, n.ID)
			}
			if v.Kind != KBool {
				trapf("branch on %s, want bool", kindName(v.Kind))
			}
			p.cur = pickArc(n, v.B(), -1)
		case cfg.NTossSwitch:
			k := ctx.toss(n.TossBound())
			p.cur = pickArc(n, false, k)
		case cfg.NCall:
			cs := n.CallStmt()
			if sem.IsBuiltin(cs.Name.Name) {
				// Reached the next visible operation: the transition's
				// invisible suffix ends just before it.
				return nil
			}
			s.enterCall(p, ctx, n, cs)
		case cfg.NReturn:
			if len(p.stack) == 1 {
				// Termination statements in top-level procedures block
				// forever (§4): the process is done.
				p.status = Terminated
				return nil
			}
			callID := top.callNode
			p.stack = p.stack[:len(p.stack)-1]
			caller := p.stack[len(p.stack)-1]
			callNode := caller.graph.g.Nodes[callID]
			p.cur = callNode.Succ()
		case cfg.NExit:
			p.status = Terminated
			return nil
		default:
			trapf("unknown node kind %v", n.Kind)
		}
		if p.status == Running && p.cur == nil {
			trapf("control fell off the graph (proc %s)", top.graph.g.ProcName)
		}
	}
}

// execAssign executes an NAssign node (AssignStmt or VarStmt).
func (s *RefSystem) execAssign(ctx *refCtx, n *cfg.Node) {
	switch st := n.Stmt.(type) {
	case *ast.AssignStmt:
		v := refEval(ctx, st.RHS)
		refAssignTo(ctx, st.LHS, v)
	case *ast.VarStmt:
		c := ctx.frame.cell(st.Name.Name)
		switch {
		case st.Size != nil:
			sz := refEval(ctx, st.Size)
			if sz.Kind != KInt || sz.I < 0 || sz.I > 1<<20 {
				trapf("bad array size for %s", st.Name.Name)
			}
			c.V = ArrayVal(int(sz.I))
		case st.Init != nil:
			c.V = refEval(ctx, st.Init).Copy()
		default:
			c.V = IntVal(0)
		}
	default:
		trapf("bad assign node")
	}
}

// enterCall pushes a frame for a user procedure call.
func (s *RefSystem) enterCall(p *RefProc, ctx *refCtx, n *cfg.Node, cs *ast.CallStmt) {
	gi, ok := s.graphs[cs.Name.Name]
	if !ok {
		trapf("call to unknown procedure %s", cs.Name.Name)
	}
	if len(cs.Args) != len(gi.g.Params) {
		trapf("call to %s with %d args, want %d", cs.Name.Name, len(cs.Args), len(gi.g.Params))
	}
	if len(p.stack) >= maxCallDepth {
		trapf("call stack overflow in %s", cs.Name.Name)
	}
	nf := &refFrame{graph: gi, vars: make(map[string]*Cell, len(gi.g.Params)), callNode: n.ID}
	for i, a := range cs.Args {
		v := refEval(ctx, a)
		nf.vars[gi.g.Params[i]] = &Cell{V: v.Copy()}
	}
	p.stack = append(p.stack, nf)
	p.cur = gi.g.Entry
}

// pickArc selects the successor arc of a conditional or toss node.
func pickArc(n *cfg.Node, b bool, tossK int) *cfg.Node {
	for _, a := range n.Out {
		switch a.Label.Kind {
		case cfg.LAlways:
			return a.To
		case cfg.LTrue:
			if tossK < 0 && b {
				return a.To
			}
		case cfg.LFalse:
			if tossK < 0 && !b {
				return a.To
			}
		case cfg.LToss:
			if int(a.Label.K) == tossK {
				return a.To
			}
		}
	}
	trapf("no matching arc out of node n%d", n.ID)
	return nil
}

// Enabled reports whether process i's pending visible operation can
// execute without blocking.
func (s *RefSystem) Enabled(i int) bool {
	p := s.Procs[i]
	op, objName, ok := p.PendingOp()
	if !ok {
		return false
	}
	if op == "VS_assert" {
		return true
	}
	return s.objects[objName].enabled(op)
}

// ProcProgress reports whether process i's pending visible operation is
// progress-labeled (or any visible operation, in an unlabeled unit).
func (s *RefSystem) ProcProgress(i int) bool {
	p := s.Procs[i]
	if s.allProgress {
		_, _, ok := p.PendingOp()
		return ok
	}
	return p.PendingProgress()
}

// AllTerminated and Deadlocked are the reference's definitions of a
// final state and a deadlock, one process at a time: the tests hold the
// verdict the search draws from a pending table to them.

// AllTerminated reports whether every non-daemon process has terminated
// and no process is enabled.
func (s *RefSystem) AllTerminated() bool {
	for i, p := range s.Procs {
		if p.status != Running {
			continue
		}
		if !s.Unit.Daemons[i] || s.Enabled(i) {
			return false
		}
	}
	return true
}

// Deadlocked reports whether the system is in a deadlock.
func (s *RefSystem) Deadlocked() bool {
	running := false
	for i, p := range s.Procs {
		if p.status != Running {
			continue
		}
		if s.Enabled(i) {
			return false
		}
		if !s.Unit.Daemons[i] {
			running = true
		}
	}
	return running
}

// Step executes one transition of process i.
func (s *RefSystem) Step(i int, ch Chooser) (Event, *Outcome) {
	p := s.Procs[i]
	ev, out := s.execVisible(p, ch)
	if out != nil {
		return ev, out
	}
	return ev, s.advance(p, ch)
}

// execVisible performs the visible operation p is stopped at and moves
// control past it.
func (s *RefSystem) execVisible(p *RefProc, ch Chooser) (ev Event, out *Outcome) {
	defer catchOutcome(p.Index, &out)
	n := p.cur
	if n == nil || n.Kind != cfg.NCall {
		trapf("process %d is not at a visible operation", p.Index)
	}
	cs := n.CallStmt()
	top := p.stack[len(p.stack)-1]
	ctx := &refCtx{frame: top, chooser: ch}
	op := cs.Name.Name
	ev = Event{Proc: p.Index, Op: op}

	switch op {
	case "VS_assert":
		v := refEval(ctx, cs.Args[0])
		ev.Value, ev.HasVal = v, true
		switch v.Kind {
		case KBool:
			if !v.B() {
				// Report the violation; control still moves past the
				// assertion so exploration may continue if desired.
				p.cur = n.Succ()
				return ev, &Outcome{Kind: OutViolation, Proc: p.Index,
					Msg: fmt.Sprintf("VS_assert(%s) at node n%d of %s",
						ast.FormatExpr(cs.Args[0]), n.ID, top.graph.g.ProcName)}
			}
		case KUndef:
			// An assertion whose argument was eliminated is not
			// preserved (Theorem 7); it never fires in the closed system.
		default:
			trapf("VS_assert on %s, want bool", kindName(v.Kind))
		}
	default:
		objName := cs.Args[0].(*ast.Ident).Name
		obj := s.objects[objName]
		ev.Object = objName
		switch op {
		case "send":
			// Arrays have value semantics: the queued payload (and the
			// recorded event) must not alias the sender's variable.
			v := refEval(ctx, cs.Args[1]).Copy()
			ev.Value, ev.HasVal = v, true
			ev.Stub = obj.stub
			obj.send(v)
		case "recv":
			v, stub := obj.recv()
			ev.Value, ev.HasVal, ev.Stub = v, true, stub
			refAssignTo(ctx, cs.Args[1], v)
		case "wait":
			obj.wait()
		case "signal":
			obj.signal()
		case "vwrite":
			v := refEval(ctx, cs.Args[1]).Copy()
			ev.Value, ev.HasVal = v, true
			obj.v = v
		case "vread":
			v := obj.v
			ev.Value, ev.HasVal = v, true
			refAssignTo(ctx, cs.Args[1], v)
		default:
			trapf("unknown builtin %s", op)
		}
	}
	p.cur = n.Succ()
	return ev, nil
}

// AppendFingerprint appends the canonical state fingerprint to dst.
// Variables are walked in the slot table's name-sorted order over the
// full declared set — variables the path never touched render as their
// auto-created value 0 — so the output matches System.AppendFingerprint
// byte for byte.
func (s *RefSystem) AppendFingerprint(dst []byte) []byte {
	for _, name := range s.num.Objects {
		dst = s.objects[name].appendFingerprint(dst)
		dst = append(dst, ';')
	}
	for _, p := range s.Procs {
		dst = append(dst, '|', 'P')
		dst = strconv.AppendInt(dst, int64(p.Index), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(p.status), 10)
		if p.status != Running {
			continue
		}
		// Label cells by frame position and name so pointer values
		// fingerprint stably. The label map is only needed when the
		// process actually holds pointer values.
		var labels map[*Cell]string
		if refProcHoldsPointer(p) {
			labels = make(map[*Cell]string)
			for fi, f := range p.stack {
				for name, c := range f.vars {
					labels[c] = fmt.Sprintf("f%d.%s", fi, name)
				}
			}
		}
		for fi, f := range p.stack {
			dst = append(dst, '/')
			dst = append(dst, f.graph.g.ProcName...)
			if fi == len(p.stack)-1 {
				dst = append(dst, '@', 'n')
				dst = strconv.AppendInt(dst, int64(p.cur.ID), 10)
			} else {
				dst = append(dst, '@', 'c')
				dst = strconv.AppendInt(dst, int64(p.stack[fi+1].callNode), 10)
			}
			st := f.graph.slots
			for _, slot := range st.Sorted {
				name := st.Names[slot]
				v := IntVal(0)
				if c, ok := f.vars[name]; ok {
					v = c.V
				}
				dst = append(dst, ',')
				dst = append(dst, name...)
				dst = append(dst, '=')
				if v.Kind == KPtr {
					dst = append(dst, '&')
					dst = append(dst, labels[v.Ptr().Cell]...)
					if v.I >= 0 {
						dst = append(dst, '[')
						dst = strconv.AppendInt(dst, v.I, 10)
						dst = append(dst, ']')
					}
				} else {
					dst = v.AppendString(dst)
				}
			}
		}
	}
	return dst
}

// refProcHoldsPointer reports whether any live variable of p is a
// pointer.
func refProcHoldsPointer(p *RefProc) bool {
	for _, f := range p.stack {
		for _, c := range f.vars {
			if c.V.Kind == KPtr {
				return true
			}
		}
	}
	return false
}
