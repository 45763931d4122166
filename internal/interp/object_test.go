package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reclose/internal/ast"
	"reclose/internal/cfg"
)

// This file tests the communication objects (object.go) on their own.

func newChan(name string, capacity int64, stub bool) *object {
	return newObject(cfg.ObjectSpec{Name: name, Kind: ast.ChanObject, Arg: capacity, EnvFacing: stub})
}

// trapText runs f and returns the message of the trap it raised, "" if
// it raised none.
func trapText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = r.(trap).msg
		}
	}()
	f()
	return ""
}

func TestChanFIFO(t *testing.T) {
	c := newChan("c", 2, false)
	if !c.canSend() || c.canRecv() {
		t.Fatalf("fresh chan: canSend=%t canRecv=%t", c.canSend(), c.canRecv())
	}
	c.send(IntVal(1))
	c.send(IntVal(2))
	if c.canSend() {
		t.Error("full chan reports canSend")
	}
	if msg := trapText(func() { c.send(IntVal(3)) }); msg != "chan c: send on full channel" {
		t.Errorf("send on full chan trapped %q", msg)
	}
	v, stub := c.recv()
	if stub || v != IntVal(1) {
		t.Errorf("recv = %s/%t, want 1 (FIFO)", v, stub)
	}
	if v, _ = c.recv(); v != IntVal(2) {
		t.Errorf("second recv = %s, want 2", v)
	}
	if msg := trapText(func() { c.recv() }); msg != "chan c: recv on empty channel" {
		t.Errorf("recv on empty chan trapped %q", msg)
	}
	c.send(IntVal(9))
	c.reset()
	if len(c.q) != c.head || c.canRecv() {
		t.Error("reset did not clear the queue")
	}
}

// TestChanCompacts fills a channel, drains part of it and sends again:
// the queue reuses its backing array, and no drained slot keeps a
// value alive.
func TestChanCompacts(t *testing.T) {
	c := newChan("c", 3, false)
	for i := int64(0); i < 3; i++ {
		c.send(IntVal(i))
	}
	backing := &c.q[0]
	c.recv()
	c.recv()
	c.send(IntVal(3))
	c.send(IntVal(4))
	if &c.q[0] != backing || c.head != 0 {
		t.Errorf("send did not compact in place: head %d", c.head)
	}
	if got := string(c.appendFingerprint(nil)); got != "c:[2 3 4]" {
		t.Errorf("after compaction %q, want c:[2 3 4]", got)
	}
	for _, v := range c.q[len(c.q):cap(c.q)] {
		if v != (Value{}) {
			t.Errorf("a drained slot holds %s", v)
		}
	}
}

func TestChanStub(t *testing.T) {
	c := newChan("e", 1, true)
	// A stub never blocks and carries no data.
	for i := int64(0); i < 10; i++ {
		if !c.canSend() || !c.canRecv() {
			t.Fatal("stub blocked")
		}
		c.send(IntVal(i))
	}
	if len(c.q) != 0 {
		t.Errorf("stub accumulated %d values", len(c.q))
	}
	if v, stub := c.recv(); !stub || v != Undef {
		t.Errorf("stub recv = %s/%t, want undef/stub", v, stub)
	}
	if fp := string(c.appendFingerprint(nil)); fp != "e:stub" {
		t.Errorf("fingerprint = %q", fp)
	}
}

func TestChanEnabled(t *testing.T) {
	c := newChan("c", 1, false)
	if !c.enabled("send") || c.enabled("recv") || c.enabled("wait") {
		t.Error("enabledness wrong on empty chan")
	}
	c.send(IntVal(1))
	if c.enabled("send") || !c.enabled("recv") {
		t.Error("enabledness wrong on full chan")
	}
}

func TestSem(t *testing.T) {
	s := newObject(cfg.ObjectSpec{Name: "s", Kind: ast.SemObject, Arg: 1})
	if !s.canWait() {
		t.Fatal("sem with count 1 cannot wait")
	}
	s.wait()
	if s.canWait() {
		t.Error("sem at 0 reports canWait")
	}
	if msg := trapText(s.wait); msg != "sem s: wait on zero semaphore" {
		t.Errorf("wait at 0 trapped %q", msg)
	}
	s.signal()
	s.signal()
	if s.n != 2 {
		t.Errorf("count = %d, want 2", s.n)
	}
	if !s.enabled("wait") || !s.enabled("signal") || s.enabled("send") {
		t.Error("enabledness wrong")
	}
	s.reset()
	if s.n != 1 {
		t.Errorf("reset count = %d, want 1", s.n)
	}
}

func TestShared(t *testing.T) {
	g := newObject(cfg.ObjectSpec{Name: "g", Kind: ast.SharedObject})
	if g.v != IntVal(0) {
		t.Errorf("initial = %s", g.v)
	}
	g.v = IntVal(42)
	if got := string(g.appendFingerprint(nil)); got != "g:42" {
		t.Errorf("after write %q", got)
	}
	if !g.enabled("vread") || !g.enabled("vwrite") || g.enabled("send") {
		t.Error("enabledness wrong")
	}
	g.reset()
	if g.v != IntVal(0) {
		t.Errorf("after reset = %s", g.v)
	}
}

func TestNewObject(t *testing.T) {
	for _, c := range []struct {
		spec cfg.ObjectSpec
		fp   string
	}{
		{cfg.ObjectSpec{Name: "c", Kind: ast.ChanObject, Arg: 3}, "c:[]"},
		{cfg.ObjectSpec{Name: "e", Kind: ast.ChanObject, Arg: 1, EnvFacing: true}, "e:stub"},
		{cfg.ObjectSpec{Name: "s", Kind: ast.SemObject, Arg: 2}, "s:2"},
		{cfg.ObjectSpec{Name: "g", Kind: ast.SharedObject, Arg: 7}, "g:7"},
	} {
		o := newObject(c.spec)
		if o.name != c.spec.Name || o.kind != c.spec.Kind || o.stub != c.spec.EnvFacing {
			t.Errorf("%s: built %s %q stub=%t", c.spec.Name, o.kind, o.name, o.stub)
		}
		if got := string(o.appendFingerprint(nil)); got != c.fp {
			t.Errorf("%s: initial state %q, want %q", c.spec.Name, got, c.fp)
		}
	}
}

// TestEnablednessHistoryOnly checks the §2 assumption: enabledness is a
// function of the operation history only, never of the values carried.
func TestEnablednessHistoryOnly(t *testing.T) {
	run := func(vals []Value) []bool {
		c := newChan("c", 2, false)
		var states []bool
		for _, v := range vals {
			states = append(states, c.canSend(), c.canRecv())
			if c.canSend() {
				c.send(v)
			}
		}
		return append(states, c.canSend(), c.canRecv())
	}
	a := run([]Value{IntVal(1), IntVal(2), IntVal(3)})
	b := run([]Value{IntVal(-99), True, ArrayVal(2)})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("enabledness depends on values: %v vs %v", a, b)
		}
	}
}

// TestChanInverses walks random send/recv sequences on a small channel,
// recording each operation's inverse, and unwinds them newest first: the
// queue must pass back through every state it was in, wherever the
// forward operations left its window in the backing array (unrecv at
// head 0 included).
func TestChanInverses(t *testing.T) {
	atFront := 0
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newChan("c", 3, false)
		states := []string{string(c.appendFingerprint(nil))}
		var inverse []func()
		for i := 0; i < 40; i++ {
			if c.canSend() && (!c.canRecv() || rng.Intn(2) == 0) {
				c.send(IntVal(int64(i)))
				inverse = append(inverse, c.unsend)
			} else {
				v, _ := c.recv()
				inverse = append(inverse, func() {
					if c.head == 0 {
						atFront++
					}
					c.unrecv(v)
				})
			}
			states = append(states, string(c.appendFingerprint(nil)))
			// Unwind part of the way now and then, and go on from there.
			for len(inverse) > 0 && rng.Intn(3) == 0 {
				inverse[len(inverse)-1]()
				inverse, states = inverse[:len(inverse)-1], states[:len(states)-1]
				if got, want := string(c.appendFingerprint(nil)), states[len(states)-1]; got != want {
					t.Fatalf("seed %d, op %d: unwound to %s, was %s", seed, i, got, want)
				}
			}
		}
	}
	if atFront == 0 {
		t.Error("no unrecv ran at head 0")
	}
	s := newObject(cfg.ObjectSpec{Name: "s", Kind: ast.SemObject, Arg: 1})
	s.signal()
	s.unsignal()
	if s.n != 1 {
		t.Errorf("unsignal left count %d", s.n)
	}
}

// TestPayloadFingerprintBytes pins the objects' allocation-free value
// rendering to the reflective one: for every Value kind the bytes a
// channel and a shared variable append are exactly fmt's.
func TestPayloadFingerprintBytes(t *testing.T) {
	cell := &Cell{}
	arr := ArrayVal(3)
	arr.Arr()[1] = IntVal(-4)
	arr.Arr()[2] = PtrVal(Pointer{Cell: cell, Elem: -1})
	for _, v := range []Value{
		Undef,
		IntVal(0), IntVal(-17), IntVal(1 << 40),
		True, False,
		PtrVal(Pointer{Cell: cell, Elem: -1}),
		PtrVal(Pointer{Cell: cell, Elem: 2}),
		arr, ArrayVal(0),
	} {
		c := newChan("c", 2, false)
		c.send(v)
		c.send(v)
		if got, want := string(c.appendFingerprint(nil)), fmt.Sprintf("c:[%v %v]", v, v); got != want {
			t.Errorf("chan payload %v renders %q, want %q", v, got, want)
		}
		s := newObject(cfg.ObjectSpec{Name: "g", Kind: ast.SharedObject})
		s.v = v
		if got, want := string(s.appendFingerprint(nil)), string(fmt.Append([]byte("g:"), v)); got != want {
			t.Errorf("shared payload %v renders %q, want %q", v, got, want)
		}
	}
}

// TestObjectOpsAllocateNothing steps a warm machine through send,
// vwrite and recv of one value, two rounds a run: a channel queue and a
// shared variable hold the Value itself, so no operation allocates,
// whatever the integer.
func TestObjectOpsAllocateNothing(t *testing.T) {
	for _, x := range []int64{7, 1000, -3} {
		s := compileT(t, fmt.Sprintf(`
chan c[1];
shared g = 0;
proc main() {
    var x = %d;
    while (true) {
        send(c, x);
        vwrite(g, x);
        recv(c, x);
    }
}
process main;
`, x))
		ch := FixedChooser(0)
		if out := s.Init(ch); out != nil {
			t.Fatal(out)
		}
		round := func() {
			for range 3 {
				if _, out := s.Step(0, ch); out != nil {
					t.Fatal(out)
				}
			}
		}
		round()
		if n := testing.AllocsPerRun(100, func() { round(); round() }); n != 0 {
			t.Errorf("x = %d: %v allocations per two rounds, want 0", x, n)
		}
		if got, want := string(s.AppendFingerprint(nil)), fmt.Sprintf("c:[];g:%d;", x); !strings.HasPrefix(got, want) {
			t.Errorf("x = %d: state %s, want its objects %s", x, got, want)
		}
	}
}
