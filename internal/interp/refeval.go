package interp

import (
	"reclose/internal/ast"
	"reclose/internal/token"
)

// This file is the expression evaluator of the reference interpreter
// (RefSystem): the original tree-walking implementation over
// map[string]*Cell frames, kept verbatim as the behavioral oracle for
// the slot-resolved interpreter. Every trap message here is the
// canonical one; the compiled evaluator must reproduce them exactly.

// refFrame is one procedure activation of the reference interpreter.
type refFrame struct {
	graph    *refGraphInfo
	vars     map[string]*Cell
	callNode int // caller's call-node ID; -1 in the top frame
}

func (f *refFrame) cell(name string) *Cell {
	c, ok := f.vars[name]
	if !ok {
		c = &Cell{V: IntVal(0)}
		f.vars[name] = c
	}
	return c
}

// refCtx carries what reference expression evaluation needs.
type refCtx struct {
	frame   *refFrame
	chooser Chooser
}

func (ctx *refCtx) toss(bound int) int { return tossOutcome(ctx.chooser, bound) }

// refEval evaluates e in the context's frame. Runtime errors raise trap
// panics that the RefSystem recovers.
func refEval(ctx *refCtx, e ast.Expr) Value {
	switch e := e.(type) {
	case *ast.Ident:
		return ctx.frame.cell(e.Name).V
	case *ast.IntLit:
		return IntVal(e.Value)
	case *ast.BoolLit:
		return BoolVal(e.Value)
	case *ast.UndefLit:
		return Undef
	case *ast.TossExpr:
		b := refEval(ctx, e.Bound)
		if b.Kind != KInt {
			trapf("VS_toss bound is %s, want int", kindName(b.Kind))
		}
		return IntVal(int64(ctx.toss(int(b.I))))
	case *ast.IndexExpr:
		av := ctx.frame.cell(e.X.Name).V
		iv := refEval(ctx, e.Index)
		return indexValue(av, iv, e.X.Name)
	case *ast.UnaryExpr:
		return refEvalUnary(ctx, e)
	case *ast.BinaryExpr:
		return refEvalBinary(ctx, e)
	}
	trapf("cannot evaluate expression")
	return Undef
}

func refEvalUnary(ctx *refCtx, e *ast.UnaryExpr) Value {
	switch e.Op {
	case token.AND: // address-of
		switch x := e.X.(type) {
		case *ast.Ident:
			return PtrVal(Pointer{Cell: ctx.frame.cell(x.Name), Elem: -1})
		case *ast.IndexExpr:
			c := ctx.frame.cell(x.X.Name)
			iv := refEval(ctx, x.Index)
			if c.V.Kind != KArray {
				trapf("%s is %s, not an array", x.X.Name, kindName(c.V.Kind))
			}
			if iv.Kind != KInt || iv.I < 0 || iv.I >= c.V.I {
				trapf("&%s[...]: bad index", x.X.Name)
			}
			return PtrVal(Pointer{Cell: c, Elem: int(iv.I)})
		}
		trapf("cannot take the address of this expression")
	case token.MUL: // dereference
		p := refEval(ctx, e.X)
		if p.IsUndef() {
			trapf("dereference of undef pointer")
		}
		if p.Kind != KPtr {
			trapf("dereference of %s, want pointer", kindName(p.Kind))
		}
		return loadPtr(p.Ptr())
	case token.SUB:
		v := refEval(ctx, e.X)
		if v.IsUndef() {
			return Undef
		}
		if v.Kind != KInt {
			trapf("unary - on %s", kindName(v.Kind))
		}
		return IntVal(-v.I)
	case token.NOT:
		v := refEval(ctx, e.X)
		if v.IsUndef() {
			return Undef
		}
		if v.Kind != KBool {
			trapf("! on %s", kindName(v.Kind))
		}
		return BoolVal(!v.B())
	}
	trapf("bad unary operator %s", e.Op)
	return Undef
}

func refEvalBinary(ctx *refCtx, e *ast.BinaryExpr) Value {
	// Short-circuit logical operators.
	switch e.Op {
	case token.LAND, token.LOR:
		x := refEval(ctx, e.X)
		if x.IsUndef() {
			return Undef
		}
		if x.Kind != KBool {
			trapf("%s on %s", e.Op, kindName(x.Kind))
		}
		if e.Op == token.LAND && !x.B() {
			return False
		}
		if e.Op == token.LOR && x.B() {
			return True
		}
		y := refEval(ctx, e.Y)
		if y.IsUndef() {
			return Undef
		}
		if y.Kind != KBool {
			trapf("%s on %s", e.Op, kindName(y.Kind))
		}
		return BoolVal(y.B())
	}

	x := refEval(ctx, e.X)
	y := refEval(ctx, e.Y)
	if x.IsUndef() || y.IsUndef() {
		return Undef
	}

	switch e.Op {
	case token.EQL, token.NEQ:
		if x.Kind != y.Kind {
			trapf("comparison of %s and %s", kindName(x.Kind), kindName(y.Kind))
		}
		eq := x.Equal(y)
		if e.Op == token.NEQ {
			eq = !eq
		}
		return BoolVal(eq)
	}

	if x.Kind != KInt || y.Kind != KInt {
		trapf("%s on %s and %s", e.Op, kindName(x.Kind), kindName(y.Kind))
	}
	return intBinOp(e.Op, x.I, y.I)
}

// refAssignTo executes "lhs = v" in the frame.
func refAssignTo(ctx *refCtx, lhs ast.Expr, v Value) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		ctx.frame.cell(lhs.Name).V = v.Copy()
	case *ast.IndexExpr:
		c := ctx.frame.cell(lhs.X.Name)
		iv := refEval(ctx, lhs.Index)
		if c.V.Kind != KArray {
			trapf("%s is %s, not an array", lhs.X.Name, kindName(c.V.Kind))
		}
		if iv.IsUndef() || iv.Kind != KInt || iv.I < 0 || iv.I >= c.V.I {
			trapf("bad array index in assignment to %s", lhs.X.Name)
		}
		c.V.Arr()[iv.I] = v.Copy()
	case *ast.UnaryExpr:
		if lhs.Op != token.MUL {
			trapf("bad assignment target")
		}
		p := refEval(ctx, lhs.X)
		if p.IsUndef() {
			trapf("store through undef pointer")
		}
		if p.Kind != KPtr {
			trapf("store through %s, want pointer", kindName(p.Kind))
		}
		storePtr(p.Ptr(), v)
	default:
		trapf("bad assignment target")
	}
}
