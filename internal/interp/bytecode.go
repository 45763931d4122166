package interp

import (
	"sort"
	"time"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/token"
)

// This file is the bytecode compiler: the one-time compilation of a
// Resolution's nodes into one flat []Instr array for the whole unit,
// executed by the register-addressed dispatch loop in bcexec.go. The
// reference interpreter (refeval.go, refsys.go) is the specification
// and the differential oracle: the two must agree on every observable,
// including the byte-exact trap messages, which is why the compiler
// follows the reference's evaluation and check order instruction for
// instruction.
//
// Layout: every CFG node becomes one basic block starting with opStep
// (which moves the process's control point and charges the divergence
// budget exactly like one iteration of the reference's advance loop).
// Expressions compile with a stack discipline — expr(e, dst) leaves the
// value in register dst and may scribble on registers above dst — so a
// statement never needs more than a handful of registers and one
// scratch register file per System serves every frame (registers are
// dead across calls and visible operations, both of which are CFG node
// boundaries).

// OpCode enumerates the bytecode instructions.
type OpCode uint8

// Bytecode instructions. Operand meaning is per-opcode; see the
// dispatch loop in bcexec.go for exact semantics.
const (
	opInvalid OpCode = iota

	// Control.
	opStep      // A=node: enter node A (set control point, charge divergence budget)
	opVisible   // stop: the invisible suffix ends before this visible op
	opJump      // A=pc
	opBranch    // A=cond reg, B=true pc, C=false pc (-1 = no arc), D=node
	opTossJump  // A=toss table index, D=node
	opCallCheck // A=call site: depth check + frame metric, before arg eval
	opCall      // A=call site: push frame, copy args from registers, jump
	opReturn    // pop frame / terminate at the top frame
	opExit      // terminate the process
	opFellOff   // control fell off the graph (nil successor)
	opFail      // A=node: raise the node's compile-detected failure

	// Expressions (A=dst unless noted).
	opConst     // B=const index
	opLoadSlot  // B=slot
	opIndex     // B=array slot, C=index reg, D=name
	opAddrSlot  // B=slot (pins the frame)
	opAddrElem  // B=array slot, C=index reg, D=name (pins the frame)
	opDeref     // B=pointer reg
	opNeg       // B=operand reg
	opNot       // B=operand reg
	opToss      // B=bound reg
	opLogicJump // A=lhs reg, B=end pc, C=1 for &&, D=operator: short-circuit
	opLogicEnd  // A=dst, B=rhs reg, D=operator
	opEq        // B=lhs reg, C=rhs reg, D=1 for !=
	opIntBin    // B=lhs reg, C=rhs reg, D=operator

	// Stores.
	opStoreSlot // A=slot, B=value reg (Copy semantics)
	opStoreElem // A=array slot, B=index reg, C=value reg, D=name
	opStorePtr  // A=pointer reg, B=value reg
	opVarSize   // A=slot, B=size reg, D=name: var a[n]
	opVarZero   // A=slot: plain var declaration

	// Traps and fragment ends.
	opTrapMsg   // A=message index: unconditional trap
	opTrapUnary // D=operator: "bad unary operator %s"
	opVisEnd    // A=result reg: end of a visible-operand fragment
)

// Instr is one bytecode instruction: an opcode and four int32 operands.
type Instr struct {
	Op         OpCode
	A, B, C, D int32
}

// bcCallSite describes one user-procedure call node.
type bcCallSite struct {
	callee   *procCode
	nArgs    int32
	retPC    int32 // caller pc to resume at after return; -1 = fell off
	callNode int32
}

// bcTossTable is the precomputed outcome->pc table of one NTossSwitch.
type bcTossTable struct {
	bound   int
	targets []int32 // indexed by outcome; -1 = no matching arc
}

// bcVisFrag holds the fragment entry points of a visible operation's
// operands; -1 when the operand does not exist.
type bcVisFrag struct {
	argPC, dstPC int32
}

// bcProc is the compiled form of one procedure: block entry points into
// the module-wide instruction array.
type bcProc struct {
	code   *procCode
	entry  int32
	blocks []int32     // node ID -> block pc
	vis    []bcVisFrag // node ID -> visible operand fragments
}

// bcModule is the compiled bytecode of a whole unit: one flat
// instruction array plus the constant/name/call-site side tables shared
// by every procedure.
type bcModule struct {
	ins     []Instr
	consts  []Value
	names   []string
	sites   []bcCallSite
	toss    []bcTossTable
	maxRegs int
}

// ensureBytecode compiles the resolution's bytecode module on first
// use. The module is immutable after compilation and shared by every
// System built over the resolution, like the rest of it.
func (r *Resolution) ensureBytecode() *bcModule {
	r.bcOnce.Do(func() {
		start := time.Now()
		r.bcMod = compileModule(r)
		r.bcCompileNanos = time.Since(start).Nanoseconds()
	})
	return r.bcMod
}

// bcPatch is a jump operand awaiting the pc of a node's block.
type bcPatch struct {
	at    int32 // instruction index
	field uint8 // 'A', 'B' or 'C'
	node  int
}

type bcCompiler struct {
	mod     *bcModule
	nameIdx map[string]int32

	// Per-procedure state.
	pc        *procCode
	bp        *bcProc
	patches   []bcPatch
	tossPatch []*cfg.Node // parallel to the tables emitted for this proc
}

func compileModule(r *Resolution) *bcModule {
	c := &bcCompiler{
		mod:     &bcModule{},
		nameIdx: make(map[string]int32),
	}
	// Deterministic proc order (map iteration order must not leak into
	// the module layout, or fingerprint-independent artifacts like
	// instruction counts would vary across runs).
	names := make([]string, 0, len(r.procs))
	for name := range r.procs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.compileProc(r.procs[name])
	}
	return c.mod
}

func (c *bcCompiler) compileProc(pc *procCode) {
	bp := &bcProc{
		code:   pc,
		blocks: make([]int32, len(pc.g.Nodes)),
		vis:    make([]bcVisFrag, len(pc.g.Nodes)),
	}
	c.pc, c.bp = pc, bp
	c.patches = c.patches[:0]
	for i := range bp.vis {
		bp.vis[i] = bcVisFrag{argPC: -1, dstPC: -1}
	}
	for _, n := range pc.g.Nodes {
		bp.blocks[n.ID] = c.here()
		c.compileNode(n)
	}
	bp.entry = bp.blocks[pc.g.Entry.ID]
	for _, p := range c.patches {
		switch p.field {
		case 'A':
			c.mod.ins[p.at].A = bp.blocks[p.node]
		case 'B':
			c.mod.ins[p.at].B = bp.blocks[p.node]
		case 'C':
			c.mod.ins[p.at].C = bp.blocks[p.node]
		case 'T':
			// Toss tables were emitted holding node IDs; rewrite to pcs.
			tbl := &c.mod.toss[p.node]
			for k, t := range tbl.targets {
				if t >= 0 {
					tbl.targets[k] = bp.blocks[t]
				}
			}
		case 'S':
			// Call-site return pc: at encodes -2-siteIdx.
			c.mod.sites[-2-p.at].retPC = bp.blocks[p.node]
		}
	}
	pc.bc = bp
}

func (c *bcCompiler) here() int32 { return int32(len(c.mod.ins)) }

func (c *bcCompiler) emit(i Instr) int32 {
	at := c.here()
	c.mod.ins = append(c.mod.ins, i)
	return at
}

func (c *bcCompiler) name(s string) int32 {
	if i, ok := c.nameIdx[s]; ok {
		return i
	}
	i := int32(len(c.mod.names))
	c.mod.names = append(c.mod.names, s)
	c.nameIdx[s] = i
	return i
}

func (c *bcCompiler) constant(v Value) int32 {
	c.mod.consts = append(c.mod.consts, v)
	return int32(len(c.mod.consts) - 1)
}

// note records register usage so the shared scratch file is sized to
// the widest statement in the module.
func (c *bcCompiler) note(reg int32) {
	if int(reg)+1 > c.mod.maxRegs {
		c.mod.maxRegs = int(reg) + 1
	}
}

// jumpTo emits the transfer to a successor node, or the fell-off trap
// when the arc is missing (the reference's nil-successor check).
func (c *bcCompiler) jumpTo(succ *cfg.Node) {
	if succ == nil {
		c.emit(Instr{Op: opFellOff})
		return
	}
	at := c.emit(Instr{Op: opJump})
	c.patches = append(c.patches, bcPatch{at: at, field: 'A', node: succ.ID})
}

// branchTarget registers a patch for an optional branch target; a nil
// node compiles to -1, trapped at runtime ("no matching arc").
func (c *bcCompiler) branchTarget(at int32, field uint8, n *cfg.Node) {
	if n == nil {
		switch field {
		case 'B':
			c.mod.ins[at].B = -1
		case 'C':
			c.mod.ins[at].C = -1
		}
		return
	}
	c.patches = append(c.patches, bcPatch{at: at, field: field, node: n.ID})
}

func (c *bcCompiler) compileNode(n *cfg.Node) {
	prog := &c.pc.nodes[n.ID]
	c.emit(Instr{Op: opStep, A: int32(n.ID)})
	if prog.fail != nil {
		c.emit(Instr{Op: opFail, A: int32(n.ID)})
		return
	}
	switch prog.kind {
	case cfg.NStart:
		c.jumpTo(prog.succ)
	case cfg.NAssign:
		c.compileAssign(n)
		c.jumpTo(prog.succ)
	case cfg.NCond:
		c.expr(n.Cond, 0)
		at := c.emit(Instr{Op: opBranch, A: 0, D: int32(n.ID)})
		c.branchTarget(at, 'B', prog.onTrue)
		c.branchTarget(at, 'C', prog.onFalse)
	case cfg.NTossSwitch:
		tbl := bcTossTable{bound: prog.tossBound}
		if prog.tossBound >= 0 {
			tbl.targets = make([]int32, len(prog.tossSucc))
			for k, succ := range prog.tossSucc {
				if succ == nil {
					tbl.targets[k] = -1
				} else {
					// Toss targets patch directly: by the time the table is
					// consulted the whole proc is laid out, but blocks for
					// forward arcs are not known yet, so record node IDs and
					// fix them up with the block map after the proc.
					tbl.targets[k] = int32(succ.ID)
				}
			}
		}
		c.mod.toss = append(c.mod.toss, tbl)
		c.tossPatchLater(len(c.mod.toss) - 1)
		c.emit(Instr{Op: opTossJump, A: int32(len(c.mod.toss) - 1), D: int32(n.ID)})
	case cfg.NCall:
		if prog.vis != nil {
			c.emit(Instr{Op: opVisible})
			c.compileVisFrags(n, prog)
			return
		}
		c.compileUserCall(n, prog)
	case cfg.NReturn:
		c.emit(Instr{Op: opReturn})
	case cfg.NExit:
		c.emit(Instr{Op: opExit})
	}
}

// tossPatchLater defers the node->pc fixup of a toss table to the end
// of the proc (tables initially hold node IDs).
func (c *bcCompiler) tossPatchLater(tableIdx int) {
	c.patches = append(c.patches, bcPatch{at: -1, field: 'T', node: tableIdx})
}

func (c *bcCompiler) compileUserCall(n *cfg.Node, prog *nodeProg) {
	cs := n.CallStmt()
	site := bcCallSite{
		callee:   prog.callee,
		nArgs:    int32(len(cs.Args)),
		retPC:    -1,
		callNode: int32(n.ID),
	}
	siteIdx := int32(len(c.mod.sites))
	c.mod.sites = append(c.mod.sites, site)
	c.emit(Instr{Op: opCallCheck, A: siteIdx})
	for i, a := range cs.Args {
		c.expr(a, int32(i))
	}
	c.emit(Instr{Op: opCall, A: siteIdx})
	if prog.succ != nil {
		// The return pc is the successor's block, patched like any other
		// intra-proc jump but landing in the call-site table.
		c.patches = append(c.patches, bcPatch{at: -2 - siteIdx, field: 'S', node: prog.succ.ID})
	}
}

// compileVisFrags emits the operand fragments of a visible operation:
// straight-line expression code terminated by opVisEnd, entered by
// execVisible via the recorded pcs (never by the main dispatch loop,
// which stops at opVisible).
func (c *bcCompiler) compileVisFrags(n *cfg.Node, prog *nodeProg) {
	cs := n.CallStmt()
	vis := prog.vis
	frag := &c.bp.vis[n.ID]
	switch vis.op {
	case opAssert:
		frag.argPC = c.here()
		c.expr(cs.Args[0], 0)
		c.emit(Instr{Op: opVisEnd, A: 0})
	case opSend, opVwrite:
		frag.argPC = c.here()
		c.expr(cs.Args[1], 0)
		c.emit(Instr{Op: opVisEnd, A: 0})
	case opRecv, opVread:
		frag.dstPC = c.here()
		c.store(cs.Args[1])
		c.emit(Instr{Op: opVisEnd, A: 0})
	}
}

// store compiles an assignment target consuming the value in register
// 0 (the fragment convention: execVisible parks the incoming value
// there); scratch registers start at 1. Check order is refAssignTo's
// (refeval.go).
func (c *bcCompiler) store(lhs ast.Expr) {
	c.note(0)
	switch lhs := lhs.(type) {
	case *ast.Ident:
		c.emit(Instr{Op: opStoreSlot, A: int32(c.pc.slot(lhs.Name)), B: 0})
	case *ast.IndexExpr:
		c.expr(lhs.Index, 1)
		c.emit(Instr{Op: opStoreElem, A: int32(c.pc.slot(lhs.X.Name)), B: 1, C: 0, D: c.name(lhs.X.Name)})
	case *ast.UnaryExpr:
		if lhs.Op != token.MUL {
			c.trapMsg("bad assignment target")
			return
		}
		c.expr(lhs.X, 1)
		c.emit(Instr{Op: opStorePtr, A: 1, B: 0})
	default:
		c.trapMsg("bad assignment target")
	}
}

func (c *bcCompiler) trapMsg(msg string) {
	c.emit(Instr{Op: opTrapMsg, A: c.name(msg)})
}

// compileAssign compiles an NAssign node's statement in the order of
// the reference's execAssign: the RHS first, then the target's own
// subexpressions and checks.
func (c *bcCompiler) compileAssign(n *cfg.Node) {
	switch st := n.Stmt.(type) {
	case *ast.AssignStmt:
		c.expr(st.RHS, 0)
		c.store(st.LHS)
	case *ast.VarStmt:
		slot := int32(c.pc.slot(st.Name.Name))
		switch {
		case st.Size != nil:
			c.expr(st.Size, 0)
			c.emit(Instr{Op: opVarSize, A: slot, B: 0, D: c.name(st.Name.Name)})
		case st.Init != nil:
			c.expr(st.Init, 0)
			c.emit(Instr{Op: opStoreSlot, A: slot, B: 0})
		default:
			c.emit(Instr{Op: opVarZero, A: slot})
		}
	default:
		c.trapMsg("bad assign node")
	}
}

// expr compiles e leaving the value in register dst, using registers
// above dst as scratch.
func (c *bcCompiler) expr(e ast.Expr, dst int32) {
	c.note(dst)
	switch e := e.(type) {
	case *ast.Ident:
		c.emit(Instr{Op: opLoadSlot, A: dst, B: int32(c.pc.slot(e.Name))})
	case *ast.IntLit:
		c.emit(Instr{Op: opConst, A: dst, B: c.constant(IntVal(e.Value))})
	case *ast.BoolLit:
		c.emit(Instr{Op: opConst, A: dst, B: c.constant(BoolVal(e.Value))})
	case *ast.UndefLit:
		c.emit(Instr{Op: opConst, A: dst, B: c.constant(Undef)})
	case *ast.TossExpr:
		c.expr(e.Bound, dst)
		c.emit(Instr{Op: opToss, A: dst, B: dst})
	case *ast.IndexExpr:
		c.expr(e.Index, dst)
		c.emit(Instr{Op: opIndex, A: dst, B: int32(c.pc.slot(e.X.Name)), C: dst, D: c.name(e.X.Name)})
	case *ast.UnaryExpr:
		c.unary(e, dst)
	case *ast.BinaryExpr:
		c.binary(e, dst)
	default:
		c.trapMsg("cannot evaluate expression")
	}
}

func (c *bcCompiler) unary(e *ast.UnaryExpr, dst int32) {
	switch e.Op {
	case token.AND: // address-of
		switch x := e.X.(type) {
		case *ast.Ident:
			c.emit(Instr{Op: opAddrSlot, A: dst, B: int32(c.pc.slot(x.Name))})
		case *ast.IndexExpr:
			c.expr(x.Index, dst)
			c.emit(Instr{Op: opAddrElem, A: dst, B: int32(c.pc.slot(x.X.Name)), C: dst, D: c.name(x.X.Name)})
		default:
			c.trapMsg("cannot take the address of this expression")
		}
	case token.MUL:
		c.expr(e.X, dst)
		c.emit(Instr{Op: opDeref, A: dst, B: dst})
	case token.SUB:
		c.expr(e.X, dst)
		c.emit(Instr{Op: opNeg, A: dst, B: dst})
	case token.NOT:
		c.expr(e.X, dst)
		c.emit(Instr{Op: opNot, A: dst, B: dst})
	default:
		c.emit(Instr{Op: opTrapUnary, D: int32(e.Op)})
	}
}

func (c *bcCompiler) binary(e *ast.BinaryExpr, dst int32) {
	switch e.Op {
	case token.LAND, token.LOR:
		isAnd := int32(0)
		if e.Op == token.LAND {
			isAnd = 1
		}
		c.expr(e.X, dst)
		at := c.emit(Instr{Op: opLogicJump, A: dst, C: isAnd, D: int32(e.Op)})
		c.expr(e.Y, dst+1)
		c.emit(Instr{Op: opLogicEnd, A: dst, B: dst + 1, D: int32(e.Op)})
		c.mod.ins[at].B = c.here()
	case token.EQL, token.NEQ:
		neq := int32(0)
		if e.Op == token.NEQ {
			neq = 1
		}
		c.expr(e.X, dst)
		c.expr(e.Y, dst+1)
		c.emit(Instr{Op: opEq, A: dst, B: dst, C: dst + 1, D: neq})
	default:
		c.expr(e.X, dst)
		c.expr(e.Y, dst+1)
		c.emit(Instr{Op: opIntBin, A: dst, B: dst, C: dst + 1, D: int32(e.Op)})
	}
}
