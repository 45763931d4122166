package dataflow

import (
	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/sem"
	"reclose/internal/token"
)

// PointsTo is the result of the may-alias analysis for one procedure: a
// flow-insensitive, Andersen-style (inclusion-based) points-to relation
// over the procedure's variables.
//
// The closing algorithm only needs a conservative may-alias solution to
// build the define-use graph (§4 cites [CWZ90, Lan91, Deu94, Ruf95]); a
// flow-insensitive inclusion analysis is the standard conservative
// choice.
type PointsTo struct {
	// Pts maps a pointer variable to the set of variables it may point
	// to.
	Pts map[string]VarSet
	// AddrTaken is the set of variables whose address is taken anywhere
	// in the procedure (nil when none is).
	AddrTaken VarSet
}

// PointsToSet returns the may-point-to set of v (possibly nil).
func (pt *PointsTo) PointsToSet(v string) VarSet { return pt.Pts[v] }

// Closure returns the set of variables transitively reachable from the
// pointees of the seed variables: everything a callee receiving the
// seeds (by value) could read or write through pointers. It is nil when
// the procedure has no pointer at all.
func (pt *PointsTo) Closure(seeds []string) VarSet {
	if len(pt.Pts) == 0 {
		return nil
	}
	out := NewVarSet()
	work := make([]string, 0, len(seeds))
	for _, s := range seeds {
		for v := range pt.Pts[s] {
			if out.Add(v) {
				work = append(work, v)
			}
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for w := range pt.Pts[v] {
			if out.Add(w) {
				work = append(work, w)
			}
		}
	}
	return out
}

// AnalyzeAliases computes the points-to relation of one procedure graph.
// Both maps are nil for a procedure that takes no address.
func AnalyzeAliases(g *cfg.Graph) *PointsTo {
	// Record every address-of occurrence first, so AddrTaken is complete
	// even for addresses taken in nested expressions.
	var taken []string
	addrOf := func(e ast.Expr) {
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			switch x := u.X.(type) {
			case *ast.Ident:
				taken = append(taken, x.Name)
			case *ast.IndexExpr:
				taken = append(taken, x.X.Name)
			}
		}
	}
	for _, n := range g.Nodes {
		eachExpr(n, addrOf)
	}

	// Every points-to set grows from some &x, directly or by copying:
	// without one there is nothing to propagate.
	if len(taken) == 0 {
		return &PointsTo{}
	}
	pt := &PointsTo{Pts: make(map[string]VarSet), AddrTaken: NewVarSet(taken...)}
	ensure := func(v string) VarSet {
		s := pt.Pts[v]
		if s == nil {
			s = NewVarSet()
			pt.Pts[v] = s
		}
		return s
	}

	// Iterate the inclusion constraints to a fixpoint. The constraint
	// set is small (one per assignment/call), so a simple round-robin
	// loop suffices.
	for changed := true; changed; {
		changed = false
		grow := func(dst string, add VarSet) {
			if len(add) == 0 {
				return
			}
			if ensure(dst).AddAll(add) {
				changed = true
			}
		}
		for _, n := range g.Nodes {
			switch n.Kind {
			case cfg.NAssign:
				lhs, rhs := assignParts(n.Stmt)
				if rhs == nil {
					continue
				}
				targets := aliasTargets(lhs, pt)
				src := rhsPointees(rhs, pt)
				for _, t := range targets.Sorted() {
					grow(t, src)
				}
			case cfg.NCall:
				cs := n.CallStmt()
				if sem.IsBuiltin(cs.Name.Name) {
					// recv/vread write scalar values; no pointer flow.
					continue
				}
				// A callee holding the addresses reachable from the
				// arguments may store any of those addresses through any
				// of the reachable locations.
				var seeds []string
				for _, a := range cs.Args {
					if id, ok := a.(*ast.Ident); ok {
						seeds = append(seeds, id.Name)
					}
				}
				r := pt.Closure(seeds)
				if len(r) == 0 {
					continue
				}
				for _, x := range r.Sorted() {
					grow(x, r)
				}
			}
		}
	}
	return pt
}

// assignParts extracts the LHS and RHS of an assignment-like node
// statement (AssignStmt or VarStmt). For VarStmt without initializer the
// RHS is nil.
func assignParts(s ast.Stmt) (lhs ast.Expr, rhs ast.Expr) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return s.LHS, s.RHS
	case *ast.VarStmt:
		return s.Name, s.Init
	}
	return nil, nil
}

// aliasTargets returns the set of variables an assignment to lhs may
// modify (for pointer-flow purposes).
func aliasTargets(lhs ast.Expr, pt *PointsTo) VarSet {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		return NewVarSet(lhs.Name)
	case *ast.IndexExpr:
		return NewVarSet(lhs.X.Name)
	case *ast.UnaryExpr:
		if lhs.Op == token.MUL {
			if id, ok := lhs.X.(*ast.Ident); ok {
				if s := pt.Pts[id.Name]; s != nil {
					return s.Clone()
				}
			}
		}
	}
	return NewVarSet()
}

// rhsPointees returns the set of variables the value of rhs may point
// to: named variables for &x, and the union of the pointees of every
// variable read by the expression otherwise (conservative: pointer
// values surviving arithmetic or copies keep their targets).
func rhsPointees(rhs ast.Expr, pt *PointsTo) VarSet {
	out := NewVarSet()
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				switch x := e.X.(type) {
				case *ast.Ident:
					out.Add(x.Name)
				case *ast.IndexExpr:
					out.Add(x.X.Name)
				}
				return
			}
			if e.Op == token.MUL {
				// *p as a value: may be a pointer stored in a pointee.
				if id, ok := e.X.(*ast.Ident); ok {
					for t := range pt.Pts[id.Name] {
						out.AddAll(pt.Pts[t])
					}
				}
				return
			}
			walk(e.X)
		case *ast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *ast.Ident:
			out.AddAll(pt.Pts[e.Name])
		case *ast.IndexExpr:
			out.AddAll(pt.Pts[e.X.Name])
		case *ast.TossExpr, *ast.IntLit, *ast.BoolLit, *ast.UndefLit:
			// no pointees
		}
	}
	if rhs != nil {
		walk(rhs)
	}
	return out
}

// eachExpr invokes f on every expression appearing in node n (statement
// operands, condition, call arguments).
func eachExpr(n *cfg.Node, f func(ast.Expr)) {
	visit := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(nd ast.Node) bool {
			if ex, ok := nd.(ast.Expr); ok {
				f(ex)
			}
			return true
		})
	}
	switch n.Kind {
	case cfg.NAssign:
		lhs, rhs := assignParts(n.Stmt)
		visit(lhs)
		visit(rhs)
		if vs, ok := n.Stmt.(*ast.VarStmt); ok && vs.Size != nil {
			visit(vs.Size)
		}
	case cfg.NCond:
		visit(n.Cond)
	case cfg.NCall:
		for _, a := range n.CallStmt().Args {
			visit(a)
		}
	}
}
