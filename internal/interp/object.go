package interp

import (
	"strconv"

	"reclose/internal/ast"
	"reclose/internal/cfg"
)

// object is a communication object of §2 of the paper: a bounded FIFO
// channel, a counting semaphore or a shared variable. Per the paper's
// assumptions, whether an operation on an object is enabled depends only
// on the operations performed on it so far, never on the values stored
// in or passed through it: canSend, canRecv and canWait read occupancy
// and counts, which are functions of that history.
//
// An operation that cannot execute traps, with the object's name in the
// message; the machines only run enabled operations.
type object struct {
	name string
	kind ast.ObjectKind
	// arg is the declared argument: a channel's capacity, a semaphore's
	// initial count, a shared variable's initial integer.
	arg int64
	// stub marks a channel left by the closing transformation in place of
	// an env-facing one: it never blocks and carries no data.
	stub bool
	// q[head:] is a channel's queue. recv advances head instead of
	// re-slicing away the front, so the backing array keeps its capacity
	// across send/recv cycles; send compacts the live window back to the
	// start only when the array is full and drained slots exist.
	q    []Value
	head int
	n    int64 // a semaphore's count
	v    Value // a shared variable's value
}

// newObject returns the object sp declares, in its initial state.
func newObject(sp cfg.ObjectSpec) *object {
	o := &object{name: sp.Name, kind: sp.Kind, arg: sp.Arg, stub: sp.EnvFacing}
	o.reset()
	return o
}

// reset restores the initial state. A channel keeps its queue's backing
// array, so a Reset/replay cycle does not reallocate it.
func (o *object) reset() {
	clear(o.q)
	o.q, o.head = o.q[:0], 0
	o.n, o.v = o.arg, IntVal(o.arg)
}

// clone returns a copy of o with a queue of its own. The values in it
// are still o's: the caller deep-copies what holds a reference.
func (o *object) clone() *object {
	c := *o
	c.q, c.head = append([]Value(nil), o.q[o.head:]...), 0
	return &c
}

// enabled reports whether the named builtin operation can execute now
// without blocking; an operation the object's kind does not support
// never can.
func (o *object) enabled(op string) bool {
	switch o.kind {
	case ast.ChanObject:
		return op == "send" && o.canSend() || op == "recv" && o.canRecv()
	case ast.SemObject:
		return op == "wait" && o.canWait() || op == "signal"
	}
	return op == "vread" || op == "vwrite"
}

func (o *object) canSend() bool { return o.stub || int64(len(o.q)-o.head) < o.arg }
func (o *object) canRecv() bool { return o.stub || len(o.q) > o.head }
func (o *object) canWait() bool { return o.n > 0 }

// send enqueues v; a stub discards it.
func (o *object) send(v Value) {
	if o.stub {
		return
	}
	if !o.canSend() {
		trapf("chan %s: send on full channel", o.name)
	}
	if o.head > 0 && len(o.q) == cap(o.q) {
		n := copy(o.q, o.q[o.head:])
		clear(o.q[n:])
		o.q, o.head = o.q[:n], 0
	}
	o.q = append(o.q, v)
}

// recv dequeues the oldest value. A stub yields Undef and stub == true.
func (o *object) recv() (v Value, stub bool) {
	if o.stub {
		return Undef, true
	}
	if !o.canRecv() {
		trapf("chan %s: recv on empty channel", o.name)
	}
	v = o.q[o.head]
	o.q[o.head] = Value{}
	if o.head++; o.head == len(o.q) {
		o.q, o.head = o.q[:0], 0
	}
	return v, false
}

// unsend takes back the newest message: the inverse of a send that
// enqueued one (a stub's send and recv change nothing and have none).
func (o *object) unsend() {
	n := len(o.q) - 1
	o.q[n] = Value{}
	o.q = o.q[:n]
}

// unrecv puts v back at the front of the queue: the inverse of the recv
// that returned it.
func (o *object) unrecv(v Value) {
	if o.head == 0 { // no drained slot in front: shift the queue to open one
		o.q = append(o.q, Value{})
		copy(o.q[1:], o.q)
		o.head = 1
	}
	o.head--
	o.q[o.head] = v
}

// wait decrements a semaphore's count; signal increments it, and
// unsignal is signal's inverse (wait's is signal).
func (o *object) wait() {
	if !o.canWait() {
		trapf("sem %s: wait on zero semaphore", o.name)
	}
	o.n--
}

func (o *object) signal()   { o.n++ }
func (o *object) unsignal() { o.n-- }

// appendFingerprint appends the object's canonical rendering to dst,
// allocation-free: "c:[1 2]" or "c:stub" for a channel, "s:3" for a
// semaphore, "g:7" for a shared variable.
func (o *object) appendFingerprint(dst []byte) []byte {
	dst = append(dst, o.name...)
	switch o.kind {
	case ast.ChanObject:
		if o.stub {
			return append(dst, ":stub"...)
		}
		dst = append(dst, ':', '[')
		for i, v := range o.q[o.head:] {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = v.AppendString(dst)
		}
		return append(dst, ']')
	case ast.SemObject:
		return strconv.AppendInt(append(dst, ':'), o.n, 10)
	}
	return o.v.AppendString(append(dst, ':'))
}
