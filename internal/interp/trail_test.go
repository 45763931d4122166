package interp_test

import (
	"fmt"
	"testing"

	"reclose/internal/core"
	"reclose/internal/interp"
	"reclose/internal/obs"
)

// This file pins rules of the write trail (trail.go): which marks die,
// its bound, what an undo gives back to the pools and that it allocates
// nothing. That Undo is the identity — whatever a machine did since a
// mark, undoing to it leaves the machine indistinguishable from one that
// never left — is the machine judge's to check (judge_test.go), at every
// state of every schedule.

// stateDigest renders everything two machines in one state agree on.
func stateDigest(m interp.Machine) string {
	return fmt.Sprintf("%s #%x %v", m.AppendFingerprint(nil), m.StateHash(), m.AppendPending(nil))
}

// TestDeadMarks: whatever replaces the state wholesale kills the marks
// taken before it, the machine's last state is left alone by the refused
// Undo, no machine undoes to another's mark, and the reference has no
// live mark to give.
func TestDeadMarks(t *testing.T) {
	u, err := core.CompileSource(handwrittenSrc(t, "pointer-into-caller-frame"))
	if err != nil {
		t.Fatal(err)
	}
	r := resolveT(t, u)
	m := newCopyMachine(r, true)
	for _, kill := range []struct {
		name string
		do   func()
	}{
		{"Reset", func() { m.Reset() }},
		{"going on with a fork", func() { m = m.Fork() }},
		{"SetStateHashing", func() { m.SetStateHashing(false) }},
	} {
		advance(m, 4)
		mk := m.Mark()
		m.Step(m.AppendEnabled(nil)[0], &stepChooser{})
		kill.do()
		before := stateDigest(m)
		if popped, ok := m.Undo(mk); ok || popped != 0 {
			t.Errorf("after %s: Undo of an older mark = %d, %v", kill.name, popped, ok)
		}
		if got := stateDigest(m); got != before {
			t.Errorf("after %s: the refused Undo moved the machine", kill.name)
		}
		if mk2 := m.Mark(); mk2.SameTrail(mk) {
			t.Errorf("after %s: a new mark is on the old trail", kill.name)
		} else if _, ok := m.Undo(mk2); !ok {
			t.Errorf("after %s: a fresh mark is dead", kill.name)
		}
	}
	// A mark the machine has been taken back past.
	advance(m, 2)
	outer := m.Mark()
	m.Step(m.AppendEnabled(nil)[0], &stepChooser{})
	inner := m.Mark()
	m.Step(m.AppendEnabled(nil)[0], &stepChooser{})
	if _, ok := m.Undo(outer); !ok {
		t.Fatal("outer mark dead")
	}
	if _, ok := m.Undo(inner); ok {
		t.Errorf("Undo went forward to a mark already undone past")
	}
	// A mark is its machine's: two forks of one state that log alike, and
	// the mark of one is dead on the other (a search that gives its
	// machine up for a fresh fork keeps the marks of the old one around).
	one, two := m.Fork(), m.Fork()
	mk := one.Mark()
	two.Mark()
	two.Step(two.AppendEnabled(nil)[0], &stepChooser{})
	if _, ok := two.Undo(mk); ok {
		t.Errorf("a fork undid to the mark of another fork")
	}
	ref, err := r.NewMachine(interp.EngineRef)
	if err != nil {
		t.Fatal(err)
	}
	if mk := ref.Mark(); mk != (interp.Mark{}) || mk.SameTrail(mk) {
		t.Errorf("the reference gave out a live mark")
	} else if _, ok := ref.Undo(mk); ok {
		t.Errorf("the reference undid")
	}
	if _, ok := m.Undo(interp.Mark{}); ok {
		t.Errorf("the compiled machine undid to the dead mark")
	}
}

// TestUndoAllocatesNothing pins what the explorer's hot path relies on:
// once the log has grown to a path's length, marking, stepping — calls,
// returns, pointer stores, sends — and undoing allocate nothing. The
// second program is a hundred calls deep: the undo of a return puts the
// frame back, the undo of its call hands it to the pool, and the pool
// keeps all hundred for the next descent (its cap of 64 is for returns).
func TestUndoAllocatesNothing(t *testing.T) {
	for _, src := range []string{handwrittenSrc(t, "pointer-into-caller-frame"), `
chan out[4];
proc down(n) {
    if (n > 0) { down(n - 1); }
}
proc main() {
    var i;
    for (i = 0; i < 100; i = i + 1) {
        send(out, i);
        down(100);
        recv(out, i);
    }
}
process main;
`} {
		u, err := core.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		r := resolveT(t, u)
		for _, k := range copyModes {
			m := newCopyMachine(r, k.hashing)
			advance(m, 2)
			ch := interp.FixedChooser(0)
			var key []byte
			var en []int
			loop := func() {
				mk := m.Mark()
				for i := 0; i < 6; i++ {
					en = m.AppendEnabled(en[:0])
					if _, out := m.Step(en[0], ch); out != nil {
						t.Fatal(out)
					}
					key = m.AppendFingerprint(key[:0])
				}
				if _, ok := m.Undo(mk); !ok {
					t.Fatal("mark dead")
				}
			}
			loop() // grow the log, the pool and the key buffers once
			if n := testing.AllocsPerRun(100, loop); n != 0 {
				t.Errorf("%s: mark/step/undo allocates %v objects per round", k.name, n)
			}
		}
	}
}

// TestTrailBound: a mark taken on a log that has outgrown its bound
// (maxTrail, 65 536 entries) starts a new one, which kills the marks
// before it and none after.
func TestTrailBound(t *testing.T) {
	u, err := core.CompileSource(`
sem s = 0;
proc main() {
    var k;
    var i;
    var x;
    for (k = 0; k < 8; k = k + 1) {
        signal(s);
        for (i = 0; i < 20000; i = i + 1) { x = x + 1; }
    }
}
process main;
`)
	if err != nil {
		t.Fatal(err)
	}
	r := resolveT(t, u)
	m, shadow := newCopyMachine(r, true), newCopyMachine(r, true)
	ch := interp.FixedChooser(0)
	m.Init(ch)
	shadow.Init(ch)
	first := m.Mark()
	last, steps := first, 0
	for ; last.SameTrail(first) && steps < 8; steps++ { // 40 000 entries a step
		m.Step(0, ch)
		shadow.Step(0, ch)
		last = m.Mark()
	}
	if steps != 2 {
		t.Fatalf("the log was dropped after %d steps, want after 2", steps)
	}
	if _, ok := m.Undo(first); ok {
		t.Errorf("a mark on the dropped log is alive")
	}
	m.Step(0, ch)
	if popped, ok := m.Undo(last); !ok || popped < 40000 {
		t.Fatalf("Undo to the mark that dropped the log = %d, %v", popped, ok)
	}
	if got, want := stateDigest(m), stateDigest(shadow); got != want {
		t.Fatalf("after the drop the undone machine differs from the one that never left\n got: %s\nwant: %s", got, want)
	}
	checkKey(t, "after the drop", m, string(shadow.AppendFingerprint(nil)))
}

// TestUndoUnpins: a frame whose first address was taken since the mark
// is recyclable again after the undo — Reset keeps the root frame, where
// it replaces one that is pinned.
func TestUndoUnpins(t *testing.T) {
	u, err := core.CompileSource(`
chan out[4];
proc main() {
    var x = 1;
    send(out, x);
    var p = &x;
    send(out, *p);
}
process main;
`)
	if err != nil {
		t.Fatal(err)
	}
	var frames obs.Counter
	for _, undo := range []bool{true, false} {
		m := resolveT(t, u).NewSystem()
		m.SetMetrics(interp.Metrics{Frames: &frames})
		ch := interp.FixedChooser(0)
		m.Init(ch)
		mk := m.Mark()
		m.Step(0, ch)
		if undo {
			m.Undo(mk)
		}
		before := frames.Load()
		m.Reset()
		if fresh := frames.Load() - before; (fresh == 0) != undo {
			t.Errorf("undo=%t: Reset allocated %d root frames", undo, fresh)
		}
	}
}
