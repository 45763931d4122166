package core

import (
	"fmt"
	"sort"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/token"
)

// This file implements the extension §7 of the paper sketches as future
// work: "one could hope for a static analysis that would determine the
// appropriate partitioning of the input domain, and, if it is small
// enough, simplify the interface instead of eliminating it."
//
// A declared environment parameter qualifies for partitioning when the
// procedure never writes it, never takes its address, never passes it
// on, and every use is a comparison against an integer constant. The
// outcome of every such comparison is constant within each cell of the
// partition induced by the constants, so drawing one representative per
// cell with VS_toss reproduces exactly the set of behaviors over the
// whole (unbounded) input domain — and, unlike elimination, keeps all
// the dependent code and its data values concrete. In particular it
// removes the "temporal independence" imprecision of §5: two tests of
// the same input always agree, because the input is a single concrete
// representative.

// PartitionStats summarizes a partitioning pass.
type PartitionStats struct {
	// Partitioned counts environment parameters converted to
	// representative draws; Representatives is the total number of
	// representatives introduced.
	Partitioned     int
	Representatives int
	// Skipped counts declared env parameters that did not qualify (used
	// beyond constant comparisons) and were left for elimination.
	Skipped int
}

// String renders the stats.
func (s *PartitionStats) String() string {
	return fmt.Sprintf("partitioned=%d representatives=%d skipped=%d",
		s.Partitioned, s.Representatives, s.Skipped)
}

// Partition rewrites every qualifying declared environment parameter of
// u into a VS_toss-selected draw from the representatives of its
// constant partition, removing it from the environment interface. The
// input unit is modified in place and returned together with the stats.
// Env parameters that do not qualify, and env-facing channels, are left
// untouched (the ordinary closing transformation handles them).
//
// Use ClosePartitioned for the combined pipeline.
func Partition(u *cfg.Unit) (*cfg.Unit, *PartitionStats) {
	st := &PartitionStats{}
	for _, name := range u.Order {
		idx := u.EnvParams[name]
		if len(idx) == 0 {
			continue
		}
		g := u.Procs[name]
		var indices []int
		for i := range idx {
			indices = append(indices, i)
		}
		sort.Ints(indices)
		for _, i := range indices {
			if i >= len(g.Params) {
				continue
			}
			param := g.Params[i]
			consts, ok := comparisonConstants(g, param)
			if !ok {
				st.Skipped++
				continue
			}
			reps := representatives(consts)
			injectDraw(g, param, reps)
			delete(u.EnvParams[name], i)
			st.Partitioned++
			st.Representatives += len(reps)
		}
		if len(u.EnvParams[name]) == 0 {
			delete(u.EnvParams, name)
		}
	}
	return u, st
}

// ClosePartitioned runs Partition and then Close: qualifying inputs are
// simplified to representative draws, the rest of the interface is
// eliminated as usual.
func ClosePartitioned(u *cfg.Unit) (*cfg.Unit, *Stats, *PartitionStats, error) {
	_, pst := Partition(u)
	closed, st, err := Close(u)
	return closed, st, pst, err
}

// comparisonConstants scans all uses of param in the procedure graph. It
// returns the set of integer constants param is compared against, and ok
// = false if param is used in any other way (assigned, address-taken,
// passed as an argument, used arithmetically, indexed, ...).
func comparisonConstants(g *cfg.Graph, param string) ([]int64, bool) {
	constSet := map[int64]bool{}
	ok := true

	// checkExpr walks an expression; occurrences of param are legal only
	// as a direct operand of a comparison whose other operand is an
	// integer literal.
	var checkExpr func(e ast.Expr)
	isParam := func(e ast.Expr) bool {
		id, is := e.(*ast.Ident)
		return is && id.Name == param
	}
	checkExpr = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			if e.Name == param {
				ok = false // bare use outside a constant comparison
			}
		case *ast.BinaryExpr:
			switch e.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				if isParam(e.X) {
					if lit, is := e.Y.(*ast.IntLit); is {
						constSet[lit.Value] = true
						return
					}
					ok = false
					return
				}
				if isParam(e.Y) {
					if lit, is := e.X.(*ast.IntLit); is {
						constSet[lit.Value] = true
						return
					}
					ok = false
					return
				}
			}
			checkExpr(e.X)
			checkExpr(e.Y)
		case *ast.UnaryExpr:
			if e.Op == token.AND && isParam(e.X) {
				ok = false // address taken
				return
			}
			checkExpr(e.X)
		case *ast.IndexExpr:
			if e.X.Name == param {
				ok = false
			}
			checkExpr(e.Index)
		case *ast.TossExpr:
			checkExpr(e.Bound)
		}
	}

	for _, n := range g.Nodes {
		switch n.Kind {
		case cfg.NCond:
			checkExpr(n.Cond)
		case cfg.NAssign:
			switch s := n.Stmt.(type) {
			case *ast.AssignStmt:
				if id, is := s.LHS.(*ast.Ident); is && id.Name == param {
					ok = false // param is written
				} else {
					checkExpr(s.LHS)
				}
				checkExpr(s.RHS)
			case *ast.VarStmt:
				if s.Size != nil {
					checkExpr(s.Size)
				}
				if s.Init != nil {
					checkExpr(s.Init)
				}
			}
		case cfg.NCall:
			// Any appearance as a call argument disqualifies: the value
			// escapes the comparison-only discipline.
			for _, a := range n.CallStmt().Args {
				if isParam(a) {
					ok = false
					continue
				}
				checkExpr(a)
			}
		}
		if !ok {
			return nil, false
		}
	}
	var out []int64
	for c := range constSet {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// representatives returns one value per cell of the partition the
// constants induce on the integers under <, <=, ==, etc.: for sorted
// constants c_1 < ... < c_k the cells are (-inf, c_1), {c_1},
// (c_1, c_2), {c_2}, ..., (c_k, +inf); a value strictly inside an open
// cell represents it when the cell is non-empty.
func representatives(consts []int64) []int64 {
	if len(consts) == 0 {
		// No comparisons at all: a single representative (the value is
		// never inspected).
		return []int64{0}
	}
	var reps []int64
	reps = append(reps, consts[0]-1) // below everything
	for i, c := range consts {
		reps = append(reps, c)
		if i+1 < len(consts) {
			if consts[i+1] > c+1 {
				reps = append(reps, c+1) // strictly between c and the next
			}
		} else {
			reps = append(reps, c+1) // above everything
		}
	}
	return reps
}

// injectDraw rewires the start node of g so that param is assigned a
// VS_toss-selected representative before the original body runs:
//
//	start -> toss -> {param = rep_i} -> original successor
func injectDraw(g *cfg.Graph, param string, reps []int64) {
	entrySucc := g.Entry.Out[0].To
	label := g.Entry.Out[0].Label
	g.Entry.Out = g.Entry.Out[:0] // detach the entry arc

	if len(reps) == 1 {
		asn := g.NewNode(cfg.NAssign, g.Entry.Pos)
		asn.Stmt = &ast.AssignStmt{
			LHS: &ast.Ident{Name: param},
			RHS: &ast.IntLit{Value: reps[0]},
		}
		g.Connect(g.Entry, asn, label)
		g.Connect(asn, entrySucc, cfg.Label{Kind: cfg.LAlways})
		return
	}

	t := g.NewNode(cfg.NTossSwitch, g.Entry.Pos)
	g.Connect(g.Entry, t, label)
	for i, r := range reps {
		asn := g.NewNode(cfg.NAssign, g.Entry.Pos)
		asn.Stmt = &ast.AssignStmt{
			LHS: &ast.Ident{Name: param},
			RHS: &ast.IntLit{Value: r},
		}
		g.Connect(t, asn, cfg.Label{Kind: cfg.LToss, K: int32(i)})
		g.Connect(asn, entrySucc, cfg.Label{Kind: cfg.LAlways})
	}
}
