package dataflow

import (
	"slices"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/sem"
	"reclose/internal/token"
)

// procFacts are the facts of one procedure that do not depend on the
// interprocedural context: a dense numbering of its variables, and for
// every node what it reads and what it defines, aliases resolved. The
// forward taint pass (solve) and the backward liveness pass both read
// them, so the two directions share one use/def model. They are fixpoint
// scratch: DefUse and String rebuild them.
type procFacts struct {
	g      *cfg.Graph
	vars   []string // dense variable id -> name
	params []int32  // the variable of each parameter
	nodes  []nodeFacts
	use    []int32     // every node's use list, node after node
	def    []def       // every node's definitions, node after node
	calls  []*cfg.Node // calls to user procedures
	sends  []*cfg.Node // send and vwrite nodes
	rpo    []int32     // node IDs in reverse postorder from the entry
	rpoPos []int32     // inverse of rpo
}

// nodeFacts is V(n) and the definitions generated at n. A definition is
// never environment-provided on its own account; outObj and callee say
// why the context may make the node's definitions so (the third reason,
// "entry parameter i", belongs to the procedure, not to a node).
type nodeFacts struct {
	uses, defs span   // the node's slices of procFacts.use and procFacts.def
	outObj     string // the node's definition is the out-argument of a recv/vread on this object
	callee     string // the node's definitions are clobbers by this user procedure
	deref      int32  // the pointer variable of a store *p = e, or -1
}

type span struct{ lo, hi int32 }

// uses is V(n) of node id as variable ids; defs its definitions.
func (f *procFacts) uses(id int) []int32 { return f.use[f.nodes[id].uses.lo:f.nodes[id].uses.hi] }
func (f *procFacts) defs(id int) []def   { return f.def[f.nodes[id].defs.lo:f.nodes[id].defs.hi] }

// def is one definition: strong definitions kill the other definitions
// of the variable, weak ones (arrays, may-alias stores, callee clobbers)
// do not.
type def struct {
	v      int32
	strong bool
}

// factsBuilder builds the facts of one procedure after another, reusing
// its interning map, arenas and buffers; a procedure keeps exact copies.
type factsBuilder struct {
	pt    *PointsTo
	ids   map[string]int32
	vars  []string
	uses  []int32
	defs  []def
	args  []string
	stamp []int // stamp[v] == cur+1: v is already in the current node's uses
	cur   int
	seen  []bool     // reversePostorder's
	stack []rpoFrame // reversePostorder's
}

type rpoFrame struct{ v, i int }

func (b *factsBuilder) id(name string) int32 {
	v, ok := b.ids[name]
	if !ok {
		v = int32(len(b.vars))
		b.ids[name] = v
		b.vars = append(b.vars, name)
		b.stamp = append(b.stamp, 0)
	}
	return v
}

func (b *factsBuilder) use(name string) {
	v := b.id(name)
	if b.stamp[v] != b.cur+1 {
		b.stamp[v] = b.cur + 1
		b.uses = append(b.uses, v)
	}
}

func (b *factsBuilder) useAll(s VarSet) {
	for _, name := range s.Sorted() {
		b.use(name)
	}
}

func (b *factsBuilder) define(name string, strong bool) {
	b.defs = append(b.defs, def{b.id(name), strong})
}

// useExpr records the variables whose values are read by e: identifiers
// (except under &), arrays, pointers, and for *p the may-point-to set of
// p.
func (b *factsBuilder) useExpr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		b.use(e.Name)
	case *ast.TossExpr:
		b.useExpr(e.Bound)
	case *ast.IndexExpr:
		b.use(e.X.Name)
		b.useExpr(e.Index)
	case *ast.UnaryExpr:
		switch id, isID := e.X.(*ast.Ident); {
		case e.Op == token.AND:
			// &x reads no value.
		case e.Op == token.MUL && isID:
			b.use(id.Name)
			b.useAll(b.pt.PointsToSet(id.Name))
		default:
			b.useExpr(e.X)
		}
	case *ast.BinaryExpr:
		b.useExpr(e.X)
		b.useExpr(e.Y)
	}
}

// buildFacts computes the context-free facts of g. arrays is the set of
// g's array variables (definitions of an array are weak).
func buildFacts(g *cfg.Graph, arrays map[string]bool) *procFacts {
	return (&factsBuilder{ids: make(map[string]int32)}).build(g, arrays)
}

func (b *factsBuilder) build(g *cfg.Graph, arrays map[string]bool) *procFacts {
	f := &procFacts{g: g, nodes: make([]nodeFacts, len(g.Nodes))}
	b.pt = AnalyzeAliases(g)
	clear(b.ids)
	b.vars, b.uses, b.defs, b.stamp = b.vars[:0], b.uses[:0], b.defs[:0], b.stamp[:0]
	for _, p := range g.Params {
		f.params = append(f.params, b.id(p))
	}
	for _, n := range g.Nodes {
		b.cur = n.ID
		nf := &f.nodes[n.ID]
		nf.deref = -1
		nf.uses.lo, nf.defs.lo = int32(len(b.uses)), int32(len(b.defs))
		switch n.Kind {
		case cfg.NAssign:
			lhs, rhs := assignParts(n.Stmt)
			if rhs != nil {
				b.useExpr(rhs)
			}
			if vs, ok := n.Stmt.(*ast.VarStmt); ok && vs.Size != nil {
				b.useExpr(vs.Size)
			}
			switch lhs := lhs.(type) {
			case *ast.Ident:
				b.define(lhs.Name, !arrays[lhs.Name])
			case *ast.IndexExpr:
				b.useExpr(lhs.Index)
				b.define(lhs.X.Name, false)
			case *ast.UnaryExpr: // *p = rhs
				if id, ok := lhs.X.(*ast.Ident); ok {
					b.use(id.Name)
					if lhs.Op == token.MUL {
						nf.deref = b.id(id.Name)
					}
					targets := b.pt.PointsToSet(id.Name)
					for _, t := range targets.Sorted() {
						b.define(t, len(targets) == 1 && !arrays[t])
					}
				}
			}
		case cfg.NCond:
			b.useExpr(n.Cond)
		case cfg.NCall:
			cs := n.CallStmt()
			if bi, ok := sem.Builtins[cs.Name.Name]; ok {
				if cs.Name.Name == "send" || cs.Name.Name == "vwrite" {
					f.sends = append(f.sends, n)
				}
				for i, a := range cs.Args {
					switch {
					case bi.HasObj && i == 0:
					case i == bi.OutArg:
						out := a.(*ast.Ident)
						b.define(out.Name, !arrays[out.Name])
						if obj, ok := cs.Args[0].(*ast.Ident); ok && bi.HasObj {
							nf.outObj = obj.Name
						}
					default:
						b.useExpr(a)
					}
				}
				break
			}
			f.calls = append(f.calls, n)
			nf.callee = cs.Name.Name
			b.args = b.args[:0]
			for _, a := range cs.Args {
				if id, ok := a.(*ast.Ident); ok {
					b.args = append(b.args, id.Name)
				}
				b.useExpr(a)
			}
			// The callee may read and write every variable reachable
			// through pointers from the arguments.
			reach := b.pt.Closure(b.args)
			b.useAll(reach)
			for _, v := range reach.Sorted() {
				b.define(v, false)
			}
		}
		nf.uses.hi, nf.defs.hi = int32(len(b.uses)), int32(len(b.defs))
	}
	f.vars = append([]string(nil), b.vars...) // an empty slices.Clone would pin b.vars
	f.use = append([]int32(nil), b.uses...)
	f.def = append([]def(nil), b.defs...)
	f.rpo = b.reversePostorder(len(g.Nodes), []int{g.Entry.ID}, func(v, i int) int {
		if out := g.Nodes[v].Out; i < len(out) {
			// Last arc first, so a loop body precedes the loop's exit.
			return out[len(out)-1-i].To.ID
		}
		return -1
	})
	f.rpoPos = make([]int32, len(f.rpo))
	for i, id := range f.rpo {
		f.rpoPos[id] = int32(i)
	}
	return f
}

// reversePostorder orders the vertices 0..n-1 of a graph for a forward
// analysis: depth-first from each vertex of first in turn, then from
// every vertex not yet reached in index order, each tree in reverse
// postorder. succ(v, i) is the i-th successor of v, or -1 past the last.
func (b *factsBuilder) reversePostorder(n int, first []int, succ func(v, i int) int) []int32 {
	order := make([]int32, 0, n)
	seen := slices.Grow(b.seen[:0], n)[:n]
	clear(seen)
	stack := slices.Grow(b.stack[:0], n) // a path may hold every vertex
	for k := 0; k < len(first)+n; k++ {
		root := k - len(first)
		if k < len(first) {
			root = first[k]
		}
		if seen[root] {
			continue
		}
		seen[root] = true
		start := len(order)
		stack = append(stack, rpoFrame{root, 0})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			s := succ(top.v, top.i)
			top.i++
			switch {
			case s < 0:
				order = append(order, int32(top.v))
				stack = stack[:len(stack)-1]
			case !seen[s]:
				seen[s] = true
				stack = append(stack, rpoFrame{s, 0})
			}
		}
		for i, j := start, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	b.seen, b.stack = seen, stack
	return order
}
