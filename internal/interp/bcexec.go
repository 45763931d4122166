package interp

import (
	"fmt"

	"reclose/internal/token"
)

// This file is the bytecode dispatch loop. It executes the flat
// instruction array compiled in bytecode.go against the System's state
// (Proc, frame, Cell); system.go holds the visible operations, Enabled
// and the fingerprint, fork.go the state copy.
//
// The loop runs in two modes sharing one switch: advance executes a
// transition's invisible suffix (entered at the current node's block,
// stopped by opVisible / opReturn / opExit), and runFragment evaluates
// one visible operand (entered at a fragment pc, stopped by opVisEnd).
// Ops that only occur in one mode are simply never reached in the
// other.

// advance executes invisible operations of p until the process reaches
// its next visible operation or terminates: the invisible suffix of a
// transition.
func (s *System) advance(p *Proc, ch Chooser) (out *Outcome) {
	defer catchOutcome(p.Index, &out)
	defer s.flushDispatch()
	if p.status != Running {
		return nil
	}
	top := p.stack[len(p.stack)-1]
	_, out = s.bcLoop(p, ch, top.code.bc.blocks[p.cur.ID])
	return out
}

// runFragment evaluates a visible-operand fragment and returns the
// value left in the opVisEnd register. The caller must park an
// incoming value (recv/vread destination stores) in register 0 first.
// Traps and needToss propagate as panics, caught by execVisible.
func (s *System) runFragment(p *Proc, pc int32, ch Chooser) Value {
	v, _ := s.bcLoop(p, ch, pc)
	return v
}

// flushDispatch moves the locally batched dispatch count into the
// tally.
func (s *System) flushDispatch() {
	s.tal.Instrs += s.nd
	s.nd = 0
}

// bcLoop is the dispatch loop. It returns on opVisible, opReturn at
// the top frame, opExit (outcome mode) or opVisEnd (fragment mode);
// everything abnormal panics with trap/needToss, converted to an
// Outcome by the caller's catchOutcome.
func (s *System) bcLoop(p *Proc, ch Chooser, pc int32) (Value, *Outcome) {
	mod := s.bc
	ins := mod.ins
	regs := s.regs
	top := p.stack[len(p.stack)-1]
	steps := 0
	nd := int64(0)
	for {
		i := ins[pc]
		pc++
		nd++
		switch i.Op {
		case opStep:
			// One block per node: entering a block is one invisible
			// operation of the reference's advance loop (refsys.go), so
			// the divergence budget is charged here, before the node's
			// code runs.
			n := top.code.g.Nodes[i.A]
			p.cur = n
			steps++
			if steps > s.MaxInvisible {
				s.nd += nd
				return Value{}, &Outcome{Kind: OutDivergence, Proc: p.Index,
					Msg: fmt.Sprintf("more than %d invisible operations in one transition (proc %s, node n%d)",
						s.MaxInvisible, top.code.name, n.ID)}
			}
			// Flush the dispatch batch once per node so a trap loses at
			// most one block's worth of counts.
			s.nd += nd
			nd = 0

		case opVisible:
			s.nd += nd
			return Value{}, nil

		case opJump:
			pc = i.A

		case opBranch:
			v := regs[i.A]
			if v.Kind == KUndef {
				trapf("branch on undef (proc %s, node n%d)", top.code.name, i.D)
			}
			if v.Kind != KBool {
				trapf("branch on %s, want bool", kindName(v.Kind))
			}
			t := i.C
			if v.B() {
				t = i.B
			}
			if t < 0 {
				trapf("no matching arc out of node n%d", i.D)
			}
			pc = t

		case opTossJump:
			tbl := &mod.toss[i.A]
			k := tossOutcome(ch, tbl.bound)
			if k < 0 || k >= len(tbl.targets) {
				// A chooser replaying recorded decisions can feed an
				// out-of-range outcome (a stale or corrupted checkpoint);
				// trap instead of indexing off the table.
				trapf("VS_toss outcome %d out of range [0,%d]", k, len(tbl.targets)-1)
			}
			t := tbl.targets[k]
			if t < 0 {
				trapf("no matching arc out of node n%d", i.D)
			}
			pc = t

		case opCallCheck:
			// The depth check precedes argument evaluation, the
			// reference's trap order (RefSystem.enterCall).
			site := &mod.sites[i.A]
			if len(p.stack) >= maxCallDepth {
				trapf("call stack overflow in %s", site.callee.name)
			}
			s.tal.Frames++

		case opCall:
			site := &mod.sites[i.A]
			nf := s.getFrame(site.callee)
			nf.callNode = int(site.callNode)
			nf.retPC = site.retPC
			for j := 0; j < int(site.nArgs); j++ {
				nf.cells[j].V = regs[j].Copy()
			}
			s.logRef(uPush, refUndo{p: p, f: nf})
			p.stack = append(p.stack, nf)
			if s.hashOn {
				s.foldFrameIn(p, len(p.stack)-1, nf)
			}
			top = nf
			pc = site.callee.bc.entry

		case opReturn:
			if len(p.stack) == 1 {
				// Top-level return: the process is done (§4).
				s.terminate(p)
				s.nd += nd
				return Value{}, nil
			}
			f := top
			s.logRef(uPop, refUndo{p: p, f: f})
			p.stack = p.stack[:len(p.stack)-1]
			top = p.stack[len(p.stack)-1]
			pc = f.retPC
			if s.hashOn {
				s.foldFrameOut(f)
			}
			if pc < 0 {
				// The reference's fell-off check names the frame it took at
				// the start of the iteration — the callee, after a pop.
				trapf("control fell off the graph (proc %s)", f.code.name)
			}
			if !s.tr.on { // else the trail entry holds it, to put it back
				s.putFrame(f)
			}

		case opExit:
			s.terminate(p)
			s.nd += nd
			return Value{}, nil

		case opFellOff:
			trapf("control fell off the graph (proc %s)", top.code.name)

		case opFail:
			top.code.nodes[i.A].fail()

		case opConst:
			regs[i.A] = mod.consts[i.B]

		case opLoadSlot:
			regs[i.A] = top.cells[i.B].V

		case opIndex:
			regs[i.A] = indexValue(top.cells[i.B].V, regs[i.C], mod.names[i.D])

		case opAddrSlot:
			s.pin(top)
			regs[i.A] = PtrVal(Pointer{Cell: &top.cells[i.B], Elem: -1})

		case opAddrElem:
			c := &top.cells[i.B]
			iv := regs[i.C]
			if c.V.Kind != KArray {
				trapf("%s is %s, not an array", mod.names[i.D], kindName(c.V.Kind))
			}
			if iv.Kind != KInt || iv.I < 0 || iv.I >= c.V.I {
				trapf("&%s[...]: bad index", mod.names[i.D])
			}
			s.pin(top)
			regs[i.A] = PtrVal(Pointer{Cell: c, Elem: int(iv.I)})

		case opDeref:
			pv := regs[i.B]
			if pv.Kind == KUndef {
				trapf("dereference of undef pointer")
			}
			if pv.Kind != KPtr {
				trapf("dereference of %s, want pointer", kindName(pv.Kind))
			}
			regs[i.A] = loadPtr(pv.Ptr())

		case opNeg:
			v := regs[i.B]
			if v.Kind == KUndef {
				regs[i.A] = Undef
				break
			}
			if v.Kind != KInt {
				trapf("unary - on %s", kindName(v.Kind))
			}
			regs[i.A] = IntVal(-v.I)

		case opNot:
			v := regs[i.B]
			if v.Kind == KUndef {
				regs[i.A] = Undef
				break
			}
			if v.Kind != KBool {
				trapf("! on %s", kindName(v.Kind))
			}
			regs[i.A] = BoolVal(!v.B())

		case opToss:
			b := regs[i.B]
			if b.Kind != KInt {
				trapf("VS_toss bound is %s, want int", kindName(b.Kind))
			}
			regs[i.A] = IntVal(int64(tossOutcome(ch, int(b.I))))

		case opLogicJump:
			v := regs[i.A]
			switch {
			case v.Kind == KUndef:
				regs[i.A] = Undef
				pc = i.B
			case v.Kind != KBool:
				trapf("%s on %s", token.Kind(i.D), kindName(v.Kind))
			case i.C == 1 && !v.B(): // && with a false lhs
				regs[i.A] = False
				pc = i.B
			case i.C == 0 && v.B(): // || with a true lhs
				regs[i.A] = True
				pc = i.B
			}

		case opLogicEnd:
			v := regs[i.B]
			switch {
			case v.Kind == KUndef:
				regs[i.A] = Undef
			case v.Kind != KBool:
				trapf("%s on %s", token.Kind(i.D), kindName(v.Kind))
			default:
				regs[i.A] = BoolVal(v.B())
			}

		case opEq:
			x, y := regs[i.B], regs[i.C]
			switch {
			case x.Kind == KUndef || y.Kind == KUndef:
				regs[i.A] = Undef
			case x.Kind != y.Kind:
				trapf("comparison of %s and %s", kindName(x.Kind), kindName(y.Kind))
			default:
				eq := x.Equal(y)
				if i.D == 1 {
					eq = !eq
				}
				regs[i.A] = BoolVal(eq)
			}

		case opIntBin:
			x, y := regs[i.B], regs[i.C]
			switch {
			case x.Kind == KUndef || y.Kind == KUndef:
				regs[i.A] = Undef
			case x.Kind != KInt || y.Kind != KInt:
				trapf("%s on %s and %s", token.Kind(i.D), kindName(x.Kind), kindName(y.Kind))
			default:
				regs[i.A] = intBinOp(token.Kind(i.D), x.I, y.I)
			}

		case opStoreSlot:
			c := &top.cells[i.A]
			s.logCell(c, &c.V)
			c.V = regs[i.B].Copy()
			if s.hashOn {
				s.noteWrite(c)
			}

		case opStoreElem:
			c := &top.cells[i.A]
			iv := regs[i.B]
			if c.V.Kind != KArray {
				trapf("%s is %s, not an array", mod.names[i.D], kindName(c.V.Kind))
			}
			if iv.Kind != KInt || iv.I < 0 || iv.I >= c.V.I {
				trapf("bad array index in assignment to %s", mod.names[i.D])
			}
			s.logCell(c, &c.V.Arr()[iv.I])
			c.V.Arr()[iv.I] = regs[i.C].Copy()
			if s.hashOn {
				s.noteWrite(c)
			}

		case opStorePtr:
			pv := regs[i.A]
			if pv.Kind == KUndef {
				trapf("store through undef pointer")
			}
			if pv.Kind != KPtr {
				trapf("store through %s, want pointer", kindName(pv.Kind))
			}
			s.logStore(pv.Ptr())
			storePtr(pv.Ptr(), regs[i.B])
			if c := pv.Ptr().Cell; s.hashOn && c.hkey != 0 {
				s.noteWrite(c)
				if fi, _ := p.locate(c); fi < 0 {
					// Another process's live cell: Step clears only p's bit.
					s.logRef(uSegs, refUndo{})
					for _, q := range s.Procs {
						q.segOK = false
					}
				}
			}

		case opVarSize:
			sz := regs[i.B]
			if sz.Kind != KInt || sz.I < 0 || sz.I > 1<<20 {
				trapf("bad array size for %s", mod.names[i.D])
			}
			c := &top.cells[i.A]
			s.logCell(c, &c.V)
			c.V = ArrayVal(int(sz.I))
			if s.hashOn {
				s.noteWrite(c)
			}

		case opVarZero:
			c := &top.cells[i.A]
			s.logCell(c, &c.V)
			c.V = IntVal(0)
			if s.hashOn {
				s.noteWrite(c)
			}

		case opTrapMsg:
			trapf("%s", mod.names[i.A])

		case opTrapUnary:
			trapf("bad unary operator %s", token.Kind(i.D))

		case opVisEnd:
			s.nd += nd
			return regs[i.A], nil

		default:
			panic(fmt.Sprintf("interp: bad opcode %d at pc %d", i.Op, pc-1))
		}
	}
}

// terminate ends p: the fingerprint renders no frame of a terminated
// process, so its cells leave the accumulator.
func (s *System) terminate(p *Proc) {
	p.status = Terminated
	if s.hashOn {
		s.logRef(uTerm, refUndo{p: p})
		s.foldProcOut(p)
	}
}

// pin marks f address-taken.
func (s *System) pin(f *frame) {
	if !f.pinned {
		s.logRef(uPin, refUndo{f: f})
		f.pinned = true
	}
}

// framePoolCap bounds the frames returns and Reset put on
// the per-System free list (the undo of a call is not held to it).
const framePoolCap = 64

// getFrame returns a frame for code, recycling a previously popped,
// unpinned one when available. Recycled cells are re-zeroed to the
// auto-created value 0; replacing a cell's Value never mutates an old
// array backing (stores install fresh headers), so payloads recorded
// in events or captured by forks stay intact.
func (s *System) getFrame(code *procCode) *frame {
	n := code.nSlots()
	if k := len(s.pool); k > 0 {
		f := s.pool[k-1]
		s.pool = s.pool[:k-1]
		if cap(f.cells) >= n {
			cells := f.cells[:n]
			for i := range cells {
				cells[i] = Cell{V: Value{Kind: KInt}}
			}
			f.cells = cells
		} else {
			f.cells = newCells(n)
		}
		f.code = code
		f.pinned = false
		return f
	}
	return &frame{code: code, cells: newCells(n)}
}

// putFrame recycles a popped frame. A pinned frame — one whose cells
// had their address taken — is left for the garbage collector: stale
// pointers may still read through it (the stale-pointer semantics the
// oracles pin down).
func (s *System) putFrame(f *frame) {
	if f.pinned || len(s.pool) >= framePoolCap {
		return
	}
	s.pool = append(s.pool, f)
}
