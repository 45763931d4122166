// Package comm implements the communication objects of §2 of the paper:
// bounded FIFO channels, counting semaphores, and shared variables.
//
// Per the paper's assumptions, the enabledness of any operation on an
// object depends exclusively on the sequence of operations performed on
// the object so far, never on the values stored in or passed through it.
// The implementations preserve that property: CanSend/CanRecv/CanWait
// inspect only occupancy/counters, which are functions of the operation
// history.
//
// Payloads are opaque (any); the interpreter stores its own value
// representation in them.
package comm

import (
	"fmt"
	"strconv"

	"reclose/internal/ast"
	"reclose/internal/cfg"
)

// Object is a communication object instance.
type Object interface {
	// Name returns the declared object name.
	Name() string
	// Kind returns the object kind (chan, sem, shared).
	Kind() ast.ObjectKind
	// Enabled reports whether the named builtin operation can execute
	// now without blocking.
	Enabled(op string) bool
	// Reset restores the initial state.
	Reset()
	// Fingerprint returns a short string capturing the object state
	// (used by the optional state-hashing mode of the explorer).
	Fingerprint() string
	// AppendFingerprint appends the same canonical fingerprint to dst
	// and returns the extended slice; it is the allocation-free form
	// used on the explorer's hot path.
	AppendFingerprint(dst []byte) []byte
	// Clone returns an independent deep copy of the object for state
	// snapshots (the reference interpreter's fork). Payloads are opaque
	// here, so the caller supplies copyPayload to duplicate each stored
	// value; mutations of either copy never affect the other.
	Clone(copyPayload func(any) any) Object
}

// appendPayload renders one stored payload exactly as fmt.Append would.
// The interpreter's values render themselves allocation-free through
// AppendString; anything else takes the reflective path.
func appendPayload(dst []byte, v any) []byte {
	if a, ok := v.(interface{ AppendString([]byte) []byte }); ok {
		return a.AppendString(dst)
	}
	return fmt.Append(dst, v)
}

// Chan is a bounded FIFO buffer. An env-facing stub channel (left behind
// by the closing transformation) never blocks and carries no data.
type Chan struct {
	name      string
	capacity  int
	envFacing bool
	// q[head:] is the live queue. Recv advances head instead of
	// re-slicing away the front, so the backing array keeps its capacity
	// across send/recv cycles; Send compacts the live window back to the
	// start only when the array is full and drained slots exist.
	q    []any
	head int
}

// NewChan returns a channel of the given capacity. If envFacing is true
// the channel is a data-free stub.
func NewChan(name string, capacity int, envFacing bool) *Chan {
	return &Chan{name: name, capacity: capacity, envFacing: envFacing}
}

// Name implements Object.
func (c *Chan) Name() string { return c.name }

// Kind implements Object.
func (c *Chan) Kind() ast.ObjectKind { return ast.ChanObject }

// EnvFacing reports whether the channel is a stub.
func (c *Chan) EnvFacing() bool { return c.envFacing }

// CanSend reports whether a send would not block.
func (c *Chan) CanSend() bool { return c.envFacing || len(c.q)-c.head < c.capacity }

// CanRecv reports whether a receive would not block.
func (c *Chan) CanRecv() bool { return c.envFacing || len(c.q) > c.head }

// Enabled implements Object.
func (c *Chan) Enabled(op string) bool {
	switch op {
	case "send":
		return c.CanSend()
	case "recv":
		return c.CanRecv()
	}
	return false
}

// Send enqueues v. On a stub the value is discarded.
func (c *Chan) Send(v any) error {
	if c.envFacing {
		return nil
	}
	if len(c.q)-c.head >= c.capacity {
		return fmt.Errorf("chan %s: send on full channel", c.name)
	}
	if c.head > 0 && len(c.q) == cap(c.q) {
		n := copy(c.q, c.q[c.head:])
		for i := n; i < len(c.q); i++ {
			c.q[i] = nil
		}
		c.q = c.q[:n]
		c.head = 0
	}
	c.q = append(c.q, v)
	return nil
}

// Recv dequeues the oldest value. On a stub it returns (nil, true): the
// caller substitutes the undefined value.
func (c *Chan) Recv() (v any, stub bool, err error) {
	if c.envFacing {
		return nil, true, nil
	}
	if len(c.q) == c.head {
		return nil, false, fmt.Errorf("chan %s: recv on empty channel", c.name)
	}
	v = c.q[c.head]
	c.q[c.head] = nil
	c.head++
	if c.head == len(c.q) {
		c.q = c.q[:0]
		c.head = 0
	}
	return v, false, nil
}

// Unsend takes back the newest message: the inverse of a Send that
// enqueued one (a stub's Send and Recv change nothing and have none).
func (c *Chan) Unsend() {
	n := len(c.q) - 1
	c.q[n] = nil
	c.q = c.q[:n]
}

// Unrecv puts v back at the front of the queue: the inverse of the Recv
// that returned it.
func (c *Chan) Unrecv(v any) {
	if c.head == 0 { // no drained slot in front: shift the queue to open one
		c.q = append(c.q, nil)
		copy(c.q[1:], c.q)
		c.head = 1
	}
	c.head--
	c.q[c.head] = v
}

// Len returns the current queue length.
func (c *Chan) Len() int { return len(c.q) - c.head }

// Reset implements Object. The queue's backing array is retained so a
// Reset/replay cycle does not reallocate it.
func (c *Chan) Reset() {
	for i := range c.q {
		c.q[i] = nil
	}
	c.q = c.q[:0]
	c.head = 0
}

// Clone implements Object.
func (c *Chan) Clone(copyPayload func(any) any) Object {
	nc := &Chan{name: c.name, capacity: c.capacity, envFacing: c.envFacing}
	if live := c.q[c.head:]; len(live) > 0 {
		nc.q = make([]any, len(live))
		for i, v := range live {
			nc.q[i] = copyPayload(v)
		}
	}
	return nc
}

// Fingerprint implements Object.
func (c *Chan) Fingerprint() string { return string(c.AppendFingerprint(nil)) }

// AppendFingerprint implements Object.
func (c *Chan) AppendFingerprint(dst []byte) []byte {
	dst = append(dst, c.name...)
	if c.envFacing {
		return append(dst, ":stub"...)
	}
	dst = append(dst, ':', '[')
	for i, v := range c.q[c.head:] {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = appendPayload(dst, v)
	}
	return append(dst, ']')
}

// Sem is a counting semaphore.
type Sem struct {
	name    string
	initial int64
	count   int64
}

// NewSem returns a semaphore with the given initial count.
func NewSem(name string, initial int64) *Sem {
	return &Sem{name: name, initial: initial, count: initial}
}

// Name implements Object.
func (s *Sem) Name() string { return s.name }

// Kind implements Object.
func (s *Sem) Kind() ast.ObjectKind { return ast.SemObject }

// CanWait reports whether a wait would not block.
func (s *Sem) CanWait() bool { return s.count > 0 }

// Enabled implements Object.
func (s *Sem) Enabled(op string) bool {
	switch op {
	case "wait":
		return s.CanWait()
	case "signal":
		return true
	}
	return false
}

// Wait decrements the count.
func (s *Sem) Wait() error {
	if s.count <= 0 {
		return fmt.Errorf("sem %s: wait on zero semaphore", s.name)
	}
	s.count--
	return nil
}

// Signal increments the count.
func (s *Sem) Signal() { s.count++ }

// Unsignal is the inverse of Signal (of Wait, it is Signal).
func (s *Sem) Unsignal() { s.count-- }

// Count returns the current count.
func (s *Sem) Count() int64 { return s.count }

// Reset implements Object.
func (s *Sem) Reset() { s.count = s.initial }

// Clone implements Object.
func (s *Sem) Clone(copyPayload func(any) any) Object {
	ns := *s
	return &ns
}

// Fingerprint implements Object.
func (s *Sem) Fingerprint() string { return string(s.AppendFingerprint(nil)) }

// AppendFingerprint implements Object.
func (s *Sem) AppendFingerprint(dst []byte) []byte {
	dst = append(dst, s.name...)
	dst = append(dst, ':')
	return strconv.AppendInt(dst, s.count, 10)
}

// Shared is a shared variable. Reads and writes never block.
type Shared struct {
	name    string
	initial any
	v       any
}

// NewShared returns a shared variable with the given initial value.
func NewShared(name string, initial any) *Shared {
	return &Shared{name: name, initial: initial, v: initial}
}

// Name implements Object.
func (s *Shared) Name() string { return s.name }

// Kind implements Object.
func (s *Shared) Kind() ast.ObjectKind { return ast.SharedObject }

// Enabled implements Object.
func (s *Shared) Enabled(op string) bool { return op == "vread" || op == "vwrite" }

// Read returns the current value.
func (s *Shared) Read() any { return s.v }

// Write replaces the current value.
func (s *Shared) Write(v any) { s.v = v }

// Reset implements Object.
func (s *Shared) Reset() { s.v = s.initial }

// Clone implements Object.
func (s *Shared) Clone(copyPayload func(any) any) Object {
	ns := &Shared{name: s.name, initial: s.initial}
	ns.v = s.v
	if s.v != nil {
		ns.v = copyPayload(s.v)
	}
	return ns
}

// Fingerprint implements Object.
func (s *Shared) Fingerprint() string { return string(s.AppendFingerprint(nil)) }

// AppendFingerprint implements Object.
func (s *Shared) AppendFingerprint(dst []byte) []byte {
	dst = append(dst, s.name...)
	dst = append(dst, ':')
	return appendPayload(dst, s.v)
}

// Build instantiates the objects of a compiled unit, keyed by name. The
// initFn converts an ObjectSpec's initial argument into the payload
// representation for shared variables.
func Build(specs []cfg.ObjectSpec, initFn func(int64) any) map[string]Object {
	objs := make(map[string]Object, len(specs))
	for _, sp := range specs {
		switch sp.Kind {
		case ast.ChanObject:
			objs[sp.Name] = NewChan(sp.Name, int(sp.Arg), sp.EnvFacing)
		case ast.SemObject:
			objs[sp.Name] = NewSem(sp.Name, sp.Arg)
		case ast.SharedObject:
			objs[sp.Name] = NewShared(sp.Name, initFn(sp.Arg))
		}
	}
	return objs
}
