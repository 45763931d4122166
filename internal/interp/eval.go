package interp

import (
	"reclose/internal/token"
)

// Chooser supplies VS_toss outcomes. Choose is called with the toss
// bound n and must return an outcome in [0, n]; returning ok == false
// means no outcome is scripted, which aborts the current execution with
// a NeedToss outcome (the explorer then schedules each outcome in turn).
type Chooser interface {
	Choose(bound int) (outcome int, ok bool)
}

// ChooserFunc adapts a function to the Chooser interface.
type ChooserFunc func(bound int) (int, bool)

// Choose implements Chooser.
func (f ChooserFunc) Choose(bound int) (int, bool) { return f(bound) }

// FixedChooser returns a Chooser that always picks the given outcome
// (clamped to the bound). Useful for smoke-running closed programs.
func FixedChooser(outcome int) Chooser {
	return ChooserFunc(func(bound int) (int, bool) {
		if outcome > bound {
			return bound, true
		}
		return outcome, true
	})
}

// frame is one procedure activation: a dense cell array indexed by the
// procedure's slot table (resolve.go) instead of a name-keyed map. The
// cells are addressable — &frame.cells[slot] is stable for the lifetime
// of the activation — which is what pointer values rely on.
type frame struct {
	code     *procCode
	cells    []Cell
	callNode int // caller's call-node ID; -1 in the top frame
	// retPC is the bytecode resume point in the caller after this frame
	// returns; -1 means control falls off the caller's graph (a trap).
	retPC int32
	// pinned marks a frame whose cells were address-taken; the frame
	// pool must not recycle it (stale pointers may still read its cells
	// after the pop).
	pinned bool
}

// newCells allocates a zeroed cell array: every variable starts as the
// auto-created value 0, matching the reference interpreter's on-demand
// cell creation.
func newCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i].V.Kind = KInt
	}
	return cells
}

// tossOutcome validates and resolves one VS_toss against the chooser;
// shared by the compiled and the reference evaluators.
func tossOutcome(ch Chooser, bound int) int {
	if bound < 0 {
		trapf("VS_toss with negative bound %d", bound)
	}
	k, ok := ch.Choose(bound)
	if !ok {
		panic(needToss{bound: bound})
	}
	if k < 0 || k > bound {
		trapf("chooser returned %d outside [0,%d]", k, bound)
	}
	return k
}

func kindName(k Kind) string {
	switch k {
	case KUndef:
		return "undef"
	case KInt:
		return "int"
	case KBool:
		return "bool"
	case KPtr:
		return "pointer"
	case KArray:
		return "array"
	}
	return "?"
}

func indexValue(av, iv Value, name string) Value {
	if av.Kind != KArray {
		trapf("%s is %s, not an array", name, kindName(av.Kind))
	}
	if iv.IsUndef() {
		trapf("array index is undef")
	}
	if iv.Kind != KInt {
		trapf("array index is %s, want int", kindName(iv.Kind))
	}
	if iv.I < 0 || iv.I >= av.I {
		trapf("array index %d out of bounds [0,%d)", iv.I, av.I)
	}
	return av.Arr()[iv.I]
}

func loadPtr(p Pointer) Value {
	if p.Cell == nil {
		trapf("dereference of nil pointer")
	}
	if p.Elem >= 0 {
		v := p.Cell.V
		if v.Kind != KArray || int64(p.Elem) >= v.I {
			trapf("stale element pointer")
		}
		return v.Arr()[p.Elem]
	}
	return p.Cell.V
}

func storePtr(p Pointer, v Value) {
	if p.Cell == nil {
		trapf("store through nil pointer")
	}
	if p.Elem >= 0 {
		av := p.Cell.V
		if av.Kind != KArray || int64(p.Elem) >= av.I {
			trapf("stale element pointer")
		}
		av.Arr()[p.Elem] = v.Copy()
		return
	}
	p.Cell.V = v.Copy()
}

// intBinOp applies an integer binary operator; both evaluators route
// through it so arithmetic traps stay identical.
func intBinOp(op token.Kind, a, b int64) Value {
	switch op {
	case token.ADD:
		return IntVal(a + b)
	case token.SUB:
		return IntVal(a - b)
	case token.MUL:
		return IntVal(a * b)
	case token.QUO:
		if b == 0 {
			trapf("division by zero")
		}
		return IntVal(a / b)
	case token.REM:
		if b == 0 {
			trapf("modulo by zero")
		}
		return IntVal(a % b)
	case token.AND:
		return IntVal(a & b)
	case token.OR:
		return IntVal(a | b)
	case token.XOR:
		return IntVal(a ^ b)
	case token.SHL:
		if b < 0 || b > 63 {
			trapf("shift count %d out of range", b)
		}
		return IntVal(a << uint(b))
	case token.SHR:
		if b < 0 || b > 63 {
			trapf("shift count %d out of range", b)
		}
		return IntVal(a >> uint(b))
	case token.LSS:
		return BoolVal(a < b)
	case token.LEQ:
		return BoolVal(a <= b)
	case token.GTR:
		return BoolVal(a > b)
	case token.GEQ:
		return BoolVal(a >= b)
	}
	trapf("bad binary operator %s", op)
	return Undef
}
