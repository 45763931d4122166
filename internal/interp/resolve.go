package interp

import (
	"fmt"
	"sort"
	"sync"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/sem"
)

// This file is the one-time resolution pass of the compiled
// interpreter: per unit, every procedure graph gets a slot table (dense
// variable numbering, cfg.BuildSlotTable) and per-node metadata —
// precomputed successors, toss tables, linked callees, and
// visible-operation descriptors with the target object resolved to a
// dense index. Enabled, PendingOp and execVisible read the metadata
// directly; the bytecode compiler (bytecode.go) lowers it, with the
// nodes' expressions, into the instructions every System executes.
// Execution then never hashes a variable name, walks an AST, or
// consults the builtin table.
//
// The reference interpreter (refeval.go, refsys.go) is the
// specification: the differential oracle (differential_test.go) holds
// the compiled machine to byte-identical events, outcomes — every trap
// message included — and fingerprints.

// builtinOp enumerates the visible operations, replacing per-step
// string dispatch.
type builtinOp int

const (
	opAssert builtinOp = iota
	opSend
	opRecv
	opWait
	opSignal
	opVwrite
	opVread
)

// visOp describes a visible operation (builtin call node). Its operands
// — value sent, written or asserted; recv/vread destination — are
// bytecode fragments (bcVisFrag).
type visOp struct {
	op      builtinOp
	opName  string
	objName string // "" for VS_assert
	// kindOK records that the target object's declared kind matches the
	// builtin's signature; a mismatched operation is permanently
	// disabled, like the reference interpreter's Enabled dispatch.
	kindOK bool
	// violation is the precomputed VS_assert violation message (the
	// reference formats it with ast.FormatExpr on every failure).
	violation string
	// pend is the operation's row of the pending table (pending.go) but
	// for the two bits that are not the node's, enabled and daemon: the
	// object's dense index (-1 for VS_assert or an unknown object), the
	// site, the slot, and the source's `progress` label.
	pend Pending
}

// nodeProg is the resolved form of one CFG node.
type nodeProg struct {
	kind cfg.NodeKind
	// succ is the target of the node's unique LAlways arc (nil if
	// absent — control then falls off the graph, a trap).
	succ *cfg.Node
	// onTrue/onFalse are the precomputed branch targets (nil when no
	// arc matches, which traps at runtime like the reference pickArc).
	onTrue, onFalse *cfg.Node
	tossBound       int
	tossSucc        []*cfg.Node // indexed by toss outcome
	vis             *visOp      // builtin call
	callee          *procCode   // user call
	// fail, when set, raises the node's compile-detected runtime error
	// (unknown procedure, arity mismatch, malformed node) with the same
	// trap the reference interpreter raises on reaching the node.
	fail func()
}

// procCode is the compiled form of one procedure.
type procCode struct {
	name  string
	nameH uint64 // fnvString(name), folded into the control hash
	g     *cfg.Graph
	slots *cfg.SlotTable
	nodes []nodeProg
	bc    *bcProc // bytecode form (ensureBytecode); nil until compiled
}

func (pc *procCode) nSlots() int { return len(pc.slots.Names) }

// slot returns the slot of name; the slot table collected every
// identifier of the graph, so a miss is a resolver bug.
func (pc *procCode) slot(name string) int {
	s := pc.slots.Slot(name)
	if s < 0 {
		panic(fmt.Sprintf("interp: no slot for %q in %s", name, pc.name))
	}
	return s
}

// Resolution is the compiled, immutable form of a closed unit. It is
// read-only after Resolve returns and may be shared freely: the
// parallel explorer resolves a unit once and instantiates one System
// per worker from the same Resolution.
type Resolution struct {
	unit  *cfg.Unit
	procs map[string]*procCode
	// num numbers the objects and sites; objSpecs is aligned with
	// num.Objects, the dense object order of every System.
	num      *Numbering
	objSpecs []cfg.ObjectSpec
	// allProgress is set when the unit declares no `progress` labels:
	// every visible operation then counts as progress for liveness
	// checking, so unlabeled programs only report cycles that execute
	// no visible operation at all.
	allProgress bool

	// Bytecode module, compiled on first use (ensureBytecode) and then
	// shared — like the rest of the resolution — by every System.
	bcOnce         sync.Once
	bcMod          *bcModule
	bcCompileNanos int64
}

// Unit returns the unit the resolution was compiled from.
func (r *Resolution) Unit() *cfg.Unit { return r.unit }

// HasProgressLabels reports whether any visible-operation node of the
// unit carries a `progress` label. Without labels, liveness checking
// treats every visible operation as progress (the default documented
// on ast.CallStmt.Progress), so existing programs need no edits.
func HasProgressLabels(u *cfg.Unit) bool {
	for _, g := range u.Procs {
		for _, n := range g.Nodes {
			if n.Kind != cfg.NCall {
				continue
			}
			if cs := n.CallStmt(); cs != nil && cs.Progress {
				return true
			}
		}
	}
	return false
}

// Resolve compiles a closed unit for execution. Open units are
// rejected, exactly as NewSystem rejects them. The resolution captures
// the unit's graphs as they are now: resolve only after all
// transformations (closing, dead-code elimination) are done.
func Resolve(u *cfg.Unit) (*Resolution, error) {
	if u.IsOpen() {
		return nil, fmt.Errorf("interp: unit is open (declares an environment interface); close it first")
	}
	if len(u.Processes) == 0 {
		return nil, fmt.Errorf("interp: unit declares no processes")
	}
	r := &Resolution{
		unit:        u,
		procs:       make(map[string]*procCode, len(u.Procs)),
		num:         NumberUnit(u),
		allProgress: !HasProgressLabels(u),
	}
	r.objSpecs = append([]cfg.ObjectSpec(nil), u.Objects...)
	sort.Slice(r.objSpecs, func(i, j int) bool { return r.objSpecs[i].Name < r.objSpecs[j].Name })
	// Two passes: slot tables first so calls can link their callees,
	// then the node metadata.
	for name, g := range u.Procs {
		r.procs[name] = &procCode{name: name, nameH: fnvString(name), g: g, slots: cfg.BuildSlotTable(g)}
	}
	for _, pc := range r.procs {
		r.resolveProc(pc)
	}
	return r, nil
}

func (r *Resolution) resolveProc(pc *procCode) {
	pc.nodes = make([]nodeProg, len(pc.g.Nodes))
	for _, n := range pc.g.Nodes {
		p := &pc.nodes[n.ID]
		p.kind = n.Kind
		switch n.Kind {
		case cfg.NStart, cfg.NAssign:
			p.succ = n.Succ()
		case cfg.NCond:
			p.onTrue = pickArcStatic(n, true)
			p.onFalse = pickArcStatic(n, false)
		case cfg.NTossSwitch:
			p.tossBound = n.TossBound()
			// A negative bound traps at runtime (inside toss), like the
			// reference; only precompute successors for valid bounds.
			if p.tossBound >= 0 {
				p.tossSucc = make([]*cfg.Node, p.tossBound+1)
				for k := range p.tossSucc {
					p.tossSucc[k] = pickTossArc(n, k)
				}
			}
		case cfg.NCall:
			r.resolveCall(pc, n, p)
		case cfg.NReturn, cfg.NExit:
			// Nothing to precompute.
		default:
			kind := n.Kind
			p.fail = func() { trapf("unknown node kind %v", kind) }
		}
	}
}

func (r *Resolution) resolveCall(pc *procCode, n *cfg.Node, p *nodeProg) {
	cs := n.CallStmt()
	if cs == nil {
		id := n.ID
		p.fail = func() { panic(fmt.Sprintf("interp: call node n%d has no call statement", id)) }
		return
	}
	name := cs.Name.Name
	if b, ok := sem.Builtins[name]; ok {
		p.vis = r.resolveVisible(pc, n, cs, b)
		p.succ = n.Succ()
		return
	}
	callee, ok := r.procs[name]
	if !ok {
		p.fail = func() { trapf("call to unknown procedure %s", name) }
		return
	}
	if len(cs.Args) != len(callee.g.Params) {
		nargs, want := len(cs.Args), len(callee.g.Params)
		p.fail = func() { trapf("call to %s with %d args, want %d", name, nargs, want) }
		return
	}
	p.callee = callee
	p.succ = n.Succ()
}

// resolveVisible builds the descriptor of a builtin call node. Semantic
// analysis guarantees arity and an identifier object argument; the
// descriptor assumes both.
func (r *Resolution) resolveVisible(pc *procCode, n *cfg.Node, cs *ast.CallStmt, b sem.Builtin) *visOp {
	name := cs.Name.Name
	vis := &visOp{opName: name, pend: Pending{Obj: -1, Site: r.num.site(pc.name, n.ID), Slot: -1, Flags: PendRunning}}
	if cs.Progress || r.allProgress {
		vis.pend.Flags |= PendProgress
	}
	if name == "VS_assert" {
		vis.op = opAssert
		vis.violation = fmt.Sprintf("VS_assert(%s) at node n%d of %s",
			ast.FormatExpr(cs.Args[0]), n.ID, pc.name)
		return vis
	}
	switch name {
	case "send":
		vis.op = opSend
	case "recv":
		vis.op = opRecv
	case "wait":
		vis.op = opWait
	case "signal":
		vis.op = opSignal
	case "vwrite":
		vis.op = opVwrite
	case "vread":
		vis.op = opVread
	}
	// opSend..opVread alternate produce/acquire and consume/release.
	vis.pend.Slot = int8(vis.op-opSend) & 1
	vis.objName = cs.Args[0].(*ast.Ident).Name
	if vis.pend.Obj = r.num.Object(vis.objName); vis.pend.Obj >= 0 {
		vis.kindOK = r.objSpecs[vis.pend.Obj].Kind == b.ObjKind
	}
	return vis
}

// pickArcStatic precomputes the reference pickArc for a conditional:
// the first arc matching outcome b, or nil (trapped at runtime).
func pickArcStatic(n *cfg.Node, b bool) *cfg.Node {
	for _, a := range n.Out {
		switch a.Label.Kind {
		case cfg.LAlways:
			return a.To
		case cfg.LTrue:
			if b {
				return a.To
			}
		case cfg.LFalse:
			if !b {
				return a.To
			}
		}
	}
	return nil
}

// pickTossArc precomputes the reference pickArc for toss outcome k.
func pickTossArc(n *cfg.Node, k int) *cfg.Node {
	for _, a := range n.Out {
		switch a.Label.Kind {
		case cfg.LAlways:
			return a.To
		case cfg.LToss:
			if int(a.Label.K) == k {
				return a.To
			}
		}
	}
	return nil
}
