// Package interp executes compiled MiniC units: it evaluates
// expressions, runs processes over their control-flow graphs, and
// implements the transition semantics of §2 of the paper — a process
// transition is one visible operation followed by invisible operations
// up to (but not including) the next visible operation.
//
// The interpreter is deterministic given the outcomes of the VS_toss
// operations it encounters; a Chooser supplies those outcomes, which is
// how the explorer enumerates nondeterminism by replaying prefixes.
package interp

import (
	"fmt"
	"strconv"
	"unsafe"
)

// Kind classifies runtime values.
type Kind int

// Value kinds. KUndef is the distinguished unknown value introduced by
// the closing transformation; it propagates through arithmetic and
// comparisons, and branching on it is a runtime trap (it indicates the
// program computes control flow from eliminated data, which the
// transformation guarantees cannot happen in its own output).
const (
	KUndef Kind = iota
	KInt
	KBool
	KPtr
	KArray
)

// Value is a MiniC runtime value, 24 bytes: a tag, one word and one
// reference. I is a KInt's integer, a KBool's 0 or 1, a KPtr's element
// index (-1 for the whole cell) and a KArray's length; ref is a KPtr's
// *Cell and element 0 of a KArray's backing, nil otherwise and for an
// empty array (read them through B, Ptr and Arr). ref is never converted
// to uintptr — a stale pointer keeps its cell alive — and Arr never
// slices past I; the race build's checkptr validates every conversion.
type Value struct {
	Kind Kind
	I    int64
	ref  unsafe.Pointer
}

// Pointer is the address of a variable cell or an array element.
type Pointer struct {
	Cell *Cell
	Elem int // -1 for the whole cell, >= 0 for an array element
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Cell is an addressable storage location (one variable), 40 bytes.
// hkey/hc are the incremental-hash bookkeeping (hash.go): the cell's
// position key (0 when the cell is not part of the live state) and its
// current contribution to the rolling accumulator. They are
// engine-internal and never rendered in fingerprints.
type Cell struct {
	V    Value
	hkey uint64
	hc   uint64
}

// Convenience constructors.
var (
	// Undef is the unknown value.
	Undef = Value{Kind: KUndef}
	// True and False are the boolean values.
	True  = Value{Kind: KBool, I: 1}
	False = Value{Kind: KBool}
)

// IntVal returns an integer value.
func IntVal(i int64) Value { return Value{Kind: KInt, I: i} }

// BoolVal returns a boolean value.
func BoolVal(b bool) Value { return Value{Kind: KBool, I: int64(b2i(b))} }

// PtrVal returns a pointer value.
func PtrVal(p Pointer) Value {
	return Value{Kind: KPtr, I: int64(p.Elem), ref: unsafe.Pointer(p.Cell)}
}

// arrayOf returns the array value whose elements are arr's backing.
func arrayOf(arr []Value) Value {
	if len(arr) == 0 {
		return Value{Kind: KArray}
	}
	return Value{Kind: KArray, I: int64(len(arr)), ref: unsafe.Pointer(&arr[0])}
}

// B is a KBool's truth value.
func (v Value) B() bool { return v.I != 0 }

// Ptr is a KPtr's target; the zero Pointer for any other kind.
func (v Value) Ptr() Pointer {
	if v.Kind != KPtr {
		return Pointer{}
	}
	return Pointer{Cell: (*Cell)(v.ref), Elem: int(v.I)}
}

// Arr is a KArray's elements (its backing, not a copy); nil otherwise.
func (v Value) Arr() []Value {
	if v.Kind != KArray {
		return nil
	}
	return unsafe.Slice((*Value)(v.ref), v.I)
}

// ArrayVal returns a fresh zero-initialized array of n integers.
func ArrayVal(n int) Value {
	arr := make([]Value, n)
	for i := range arr {
		arr[i] = IntVal(0)
	}
	return arrayOf(arr)
}

// Copy returns a deep copy of v (arrays have value semantics: parameter
// passing and assignment copy them, per the paper's fresh-variable
// model).
func (v Value) Copy() Value {
	if v.Kind == KArray {
		arr := make([]Value, v.I)
		copy(arr, v.Arr())
		return arrayOf(arr)
	}
	return v
}

// IsUndef reports whether v is the unknown value.
func (v Value) IsUndef() bool { return v.Kind == KUndef }

// String renders the value deterministically (used in traces and state
// fingerprints).
func (v Value) String() string { return string(v.AppendString(nil)) }

// AppendString appends the canonical rendering of v to dst and returns
// the extended slice. It is the allocation-free form of String used on
// the fingerprinting hot path.
func (v Value) AppendString(dst []byte) []byte {
	switch v.Kind {
	case KUndef:
		return append(dst, "undef"...)
	case KInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KBool:
		return strconv.AppendBool(dst, v.B())
	case KPtr:
		dst = append(dst, "&cell"...)
		if v.I >= 0 {
			dst = append(dst, '[')
			dst = strconv.AppendInt(dst, v.I, 10)
			dst = append(dst, ']')
		}
		return dst
	case KArray:
		dst = append(dst, '[')
		for i, e := range v.Arr() {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = e.AppendString(dst)
		}
		return append(dst, ']')
	}
	return append(dst, '?')
}

// Equal reports deep value equality. Pointers compare by identity;
// undef equals nothing, not even itself (comparisons involving undef
// yield undef before Equal is consulted).
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KInt, KBool:
		return v.I == w.I
	case KPtr:
		return v.I == w.I && v.ref == w.ref
	case KArray:
		if v.I != w.I {
			return false
		}
		wa := w.Arr()
		for i, e := range v.Arr() {
			if !e.Equal(wa[i]) {
				return false
			}
		}
		return true
	case KUndef:
		return false
	}
	return false
}

// trap is the internal panic payload for runtime errors; it is recovered
// at the System boundary and converted into an Outcome.
type trap struct {
	msg string
}

func trapf(format string, args ...any) {
	panic(trap{msg: fmt.Sprintf(format, args...)})
}

// needToss is the internal panic payload raised when the Chooser has no
// outcome for a VS_toss; the System converts it into a NeedToss outcome.
type needToss struct {
	bound int
}
