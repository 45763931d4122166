package interp

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"reclose/internal/core"
)

// TestRepresentationSize pins the value layout (a tag, one word, one
// reference) and what it sets the size of: every value copy the
// machine makes moves one of these.
func TestRepresentationSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Value", unsafe.Sizeof(Value{}), 24},
		{"Cell", unsafe.Sizeof(Cell{}), 40},
		{"cellUndo", unsafe.Sizeof(cellUndo{}), 48},
		{"Event", unsafe.Sizeof(Event{}), 72},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// watch reports through the flag it returns when the collector frees
// the object p points at the start of.
func watch[T any](p *T) *atomic.Bool {
	freed := new(atomic.Bool)
	runtime.SetFinalizer(p, func(*T) { freed.Store(true) })
	return freed
}

// collect runs the collector until freed is set, a few times at most,
// and returns it.
func collect(freed *atomic.Bool) bool {
	for i := 0; i < 10 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return freed.Load()
}

func compileT(t *testing.T, src string) *System {
	t.Helper()
	u, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(u)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stepT(t *testing.T, s *System) Event {
	t.Helper()
	ev, out := s.Step(0, FixedChooser(0))
	if out != nil {
		t.Fatalf("step: %s", out.Msg)
	}
	return ev
}

// TestReferencesKeepTargetsAlive runs the collector while only a
// Value's reference holds its target: the backing of an array queued
// in a channel, the cells of a popped frame a stale pointer still
// reads, and a fork's arrays with the source gone. Each target must
// survive, read back intact, and be freed once the Value is dropped
// (so the watch can see a collection at all).
func TestReferencesKeepTargetsAlive(t *testing.T) {
	t.Run("channel payload", func(t *testing.T) {
		ch := newChan("c", 1, false)
		v := ArrayVal(3)
		v.Arr()[1] = IntVal(7)
		freed := watch(&v.Arr()[0])
		ch.send(v)
		v = Value{}
		if collect(freed) {
			t.Fatal("the queued array's backing was freed")
		}
		got, _ := ch.recv()
		if s := got.String(); s != "[0 7 0]" {
			t.Fatalf("received %s, want [0 7 0]", s)
		}
		got = Value{}
		if !collect(freed) {
			t.Fatal("the received array's backing was never freed")
		}
	})

	t.Run("stale pointer", func(t *testing.T) {
		s := compileT(t, `
chan c[4];
proc f(r) {
    var x = 5;
    *r = &x;
    r = 0;
    send(c, x);
}
proc g() {
    send(c, 1);
}
proc main() {
    var p = 0;
    f(&p);
    g();
    send(c, *p);
}
process main;
`)
		if out := s.Init(FixedChooser(0)); out != nil {
			t.Fatalf("Init: %s", out.Msg)
		}
		// Parked in f: take its cells before the frame is popped (pinned,
		// so never recycled) and g's frame takes its stack slot. r = 0
		// keeps them out of a pointer cycle, which no finalizer frees.
		freed := watch(&s.Procs[0].stack[1].cells[0])
		stepT(t, s)
		if collect(freed) {
			t.Fatal("the popped frame's cells were freed under a live pointer")
		}
		stepT(t, s)
		if ev := stepT(t, s); ev.String() != "P0:send(c)=5" {
			t.Fatalf("event %s, want P0:send(c)=5", ev)
		}
		s = nil
		if !collect(freed) {
			t.Fatal("the popped frame's cells were never freed")
		}
	})

	t.Run("fork", func(t *testing.T) {
		src := compileT(t, `
chan c[4];
proc main() {
    var a[3];
    a[2] = 9;
    send(c, a[2]);
}
process main;
`)
		if out := src.Init(FixedChooser(0)); out != nil {
			t.Fatalf("Init: %s", out.Msg)
		}
		fk := src.Fork()
		want := string(src.AppendFingerprint(nil))
		src = nil
		var a *Value
		for _, c := range fk.Procs[0].stack[0].cells {
			if c.V.Kind == KArray {
				a = &c.V.Arr()[0]
			}
		}
		if a == nil {
			t.Fatal("no array in the fork's frame")
		}
		freed := watch(a)
		a = nil
		if collect(freed) {
			t.Fatal("the fork's array backing was freed")
		}
		if got := string(fk.AppendFingerprint(nil)); got != want {
			t.Fatalf("fork renders\n%s\nwant\n%s", got, want)
		}
		fk = nil
		if !collect(freed) {
			t.Fatal("the fork's array backing was never freed")
		}
	})
}

// TestArrayValueEdges: Arr is nil on every other kind, and an empty
// array survives Copy, Equal, String and both machines' fingerprints
// and hashes.
func TestArrayValueEdges(t *testing.T) {
	for _, v := range []Value{Undef, IntVal(3), True, PtrVal(Pointer{Cell: &Cell{}, Elem: -1})} {
		if v.Arr() != nil {
			t.Errorf("%s: Arr() = %v, want nil", v, v.Arr())
		}
	}
	e := ArrayVal(0)
	if c := e.Copy(); !c.Equal(e) || c.String() != "[]" || c.Arr() != nil {
		t.Errorf("empty array copies to %s (Arr %v)", c, c.Arr())
	}
	if e.Equal(ArrayVal(1)) || ArrayVal(1).Equal(e) {
		t.Error("an empty array equals a one-element one")
	}

	s := compileT(t, `
chan c[2];
proc main() {
    var a[0];
    var b = a;
    send(c, 1);
}
process main;
`)
	s.SetStateHashing(true)
	if out := s.Init(FixedChooser(0)); out != nil {
		t.Fatalf("Init: %s", out.Msg)
	}
	ref, err := NewRefSystem(s.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if out := ref.Init(FixedChooser(0)); out != nil {
		t.Fatalf("reference Init: %s", out.Msg)
	}
	fp := string(s.AppendFingerprint(nil))
	if !strings.Contains(fp, "a=[],b=[]") {
		t.Fatalf("fingerprint %s renders no empty arrays", fp)
	}
	if rfp := string(ref.AppendFingerprint(nil)); rfp != fp {
		t.Fatalf("fingerprint %s, reference %s", fp, rfp)
	}
	if h, full, rh := s.StateHash(), s.RecomputeStateHash(), ref.StateHash(); h != full || h != rh {
		t.Fatalf("state hash %#x, full re-walk %#x, reference %#x", h, full, rh)
	}
}

// TestValHash pins what each kind hashes to, as the fingerprint renders
// it but a pointer by its element index only: the state hash routes the
// cache and sets -cache-mem's evictions, so the value layout must not
// move it.
func TestValHash(t *testing.T) {
	arr := ArrayVal(2)
	arr.Arr()[1] = True
	minus3 := int64(-3)
	for _, c := range []struct {
		v    Value
		want uint64
	}{
		{Undef, 0xa0761d6478bd642f},
		{IntVal(minus3), Mix64(1, uint64(minus3))},
		{False, Mix64(2, 0)},
		{True, Mix64(2, 1)},
		{PtrVal(Pointer{Cell: &Cell{}, Elem: -1}), Mix64(3, 0)},
		{PtrVal(Pointer{Cell: &Cell{}, Elem: 2}), Mix64(3, 3)},
		{ArrayVal(0), Mix64(4, 0)},
		{arr, Mix64(Mix64(Mix64(4, 2), Mix64(1, 0)), Mix64(2, 1))},
	} {
		if got := valHash(c.v); got != c.want {
			t.Errorf("valHash(%s) = %#x, want %#x", c.v, got, c.want)
		}
	}
}
