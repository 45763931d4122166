package interp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/interp"
	"reclose/internal/obs"
	"reclose/internal/randprog"
)

// This file tests the write trail (trail.go): Undo is the identity.
// Whatever a machine did since a mark — transitions that toss, trap,
// violate, diverge, exit, return, store through pointers into live and
// popped frames of its own and of other processes — undoing to the mark
// leaves it indistinguishable from a machine that never left, pointers
// into popped frames included.

// stateDigest renders everything two machines in one state agree on.
func stateDigest(m interp.Machine) string {
	return fmt.Sprintf("%s #%x %v", m.AppendFingerprint(nil), m.StateHash(), m.AppendPending(nil))
}

// sameAsShadow fails the test unless m, back from an excursion, is in
// shadow's state; on a hashing machine the restored rolling hash is also
// held to the full re-walk.
func sameAsShadow(t *testing.T, label string, m, shadow *interp.System) {
	t.Helper()
	if got, want := stateDigest(m), stateDigest(shadow); got != want {
		t.Fatalf("%s: undone machine differs from the one that never left\n got: %s\nwant: %s", label, got, want)
	}
	checkKey(t, label, m, string(shadow.AppendFingerprint(nil)))
	if h, full := m.StateHash(), m.RecomputeStateHash(); h != full {
		t.Fatalf("%s: restored incremental hash %#x != full re-walk %#x", label, h, full)
	}
}

// undoSweep drives m and a shadow down the schedule seeded by seed, with
// hashing on and off. At every state m takes a mark and keeps it, leaves
// on an excursion of one to four random transitions — to wherever they
// end, asking for the state's key at each as a search does — and undoes
// it; it must then equal the shadow, and step like it.
// When the schedule ends, every mark taken on the way is undone to in
// turn, newest first, down to the state before Init.
func undoSweep(t *testing.T, label string, u *cfg.Unit, seed int64, steps, maxInvisible int) {
	t.Helper()
	r := resolveT(t, u)
	for _, k := range copyModes {
		label := label + "/" + k.name
		m, shadow := newCopyMachine(r, k.hashing), newCopyMachine(r, k.hashing)
		m.MaxInvisible, shadow.MaxInvisible = maxInvisible, maxInvisible
		rng := rand.New(rand.NewSource(seed))
		chM, chS := &stepChooser{}, &stepChooser{}
		marks := []interp.Mark{m.Mark()}
		want := []string{stateDigest(shadow)}
		outM, outS := m.Init(chM), shadow.Init(chS)
		if !sameOutcome(outM, outS) {
			t.Fatalf("%s: Init: %s, shadow %s", label, outcomeStr(outM), outcomeStr(outS))
		}
		for step := 0; outM == nil && step < steps; step++ {
			l := fmt.Sprintf("%s: step %d", label, step)
			en := shadow.AppendEnabled(nil)
			if len(en) == 0 {
				break
			}
			mk := m.Mark()
			marks, want = append(marks, mk), append(want, stateDigest(shadow))
			away := &stepChooser{n: chM.n}
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				if e := m.AppendEnabled(nil); len(e) == 0 {
					break
				} else if _, out := m.Step(e[rng.Intn(len(e))], away); out != nil {
					break
				}
				m.AppendKey(nil, keySegs)
			}
			if popped, ok := m.Undo(mk); !ok || popped == 0 {
				t.Fatalf("%s: Undo = %d, %v after an excursion", l, popped, ok)
			}
			sameAsShadow(t, l, m, shadow)
			pick := en[rng.Intn(len(en))]
			evM, oM := m.Step(pick, chM)
			evS, oS := shadow.Step(pick, chS)
			if evM.String() != evS.String() || evM.Stub != evS.Stub || !sameOutcome(oM, oS) {
				t.Fatalf("%s: undone=(%s,%s) shadow=(%s,%s)", l, evM, outcomeStr(oM), evS, outcomeStr(oS))
			}
			outM = oM
		}
		for i := len(marks) - 1; i >= 0; i-- {
			if _, ok := m.Undo(marks[i]); !ok {
				t.Fatalf("%s: mark %d of %d is dead", label, i, len(marks))
			}
			if got := stateDigest(m); got != want[i] {
				t.Fatalf("%s: unwound to mark %d:\n got: %s\nwant: %s", label, i, got, want[i])
			}
			checkKey(t, fmt.Sprintf("%s: unwound to mark %d", label, i), m, string(m.AppendFingerprint(nil)))
			if h, full := m.StateHash(), m.RecomputeStateHash(); h != full {
				t.Fatalf("%s: unwound to mark %d: incremental hash %#x != full re-walk %#x", label, i, h, full)
			}
		}
	}
}

// undoCases end transitions the ways copyCases and keyCases do not: a
// trap, a violation and a divergence in the invisible suffix after
// stores, an exit below two calls, a top-level return, tosses, an array
// declared again, an element pointer gone stale.
var undoCases = []struct{ name, src string }{
	{name: "trap-after-stores", src: `
chan c[4];
proc main() {
    var a[2];
    var i;
    for (i = 0; i < 4; i = i + 1) {
        send(c, i);
        a[i] = i;
    }
}
process main;
process main;
`},
	{name: "violation-and-divergence", src: `
sem s = 2;
shared g = 0;
proc spin() {
    var x = 0;
    wait(s);
    x = x + 1;
    vwrite(g, x);
    while (true) { x = x + 1; }
}
proc check() {
    var v;
    wait(s);
    vread(g, v);
    v = v + 1;
    VS_assert(v == 7);
    signal(s);
}
process spin;
process check;
`},
	{name: "exit-and-return", src: `
chan out[8];
proc inner(p, n) {
    *p = *p + n;
    send(out, *p);
    if (n == 2) { exit; }
}
proc outer(p, n) {
    var k = VS_toss(2);
    inner(p, k);
    send(out, n);
}
proc main() {
    var x = 1;
    outer(&x, 1);
    outer(&x, 2);
    if (x > 2) { return; }
    send(out, x);
}
process main;
process main;
`},
	{name: "redeclared-array-and-stale-element", src: `
chan c[2];
chan out[8];
proc main() {
    var n;
    var q;
    for (n = 0; n < 3; n = n + 1) {
        var a[3];
        a[n] = n + 1;
        if (n == 0) { q = &a[2]; }
        *q = *q + 5;
        send(out, a[2]);
    }
    send(c, 9);
    recv(c, a);
    send(out, *q);
}
process main;
`},
}

// TestUndoHandwritten runs the sweep over every hand-written pointer
// and array program.
func TestUndoHandwritten(t *testing.T) {
	cases := append([]struct{ name, src string }(nil), undoCases...)
	cases = append(cases, keyCases...)
	for _, tc := range copyCases {
		cases = append(cases, struct{ name, src string }{tc.name, tc.src})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u, err := core.CompileSource(tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for seed := int64(0); seed < 8; seed++ {
				undoSweep(t, tc.name, u, seed, 40, 300)
			}
		})
	}
}

// TestUndoRandomPrograms runs it over the closed random programs of the
// differential and the copy tests.
func TestUndoRandomPrograms(t *testing.T) {
	for _, g := range []struct{ base, n, short int }{{0, 150, 30}, {2000, 60, 12}} {
		n := g.n
		if testing.Short() {
			n = g.short
		}
		for seed := g.base; seed < g.base+n; seed++ {
			src := randprog.Generate(rand.New(rand.NewSource(int64(seed))), randprog.Config{Processes: 2 + seed%2, Helpers: seed % 3})
			closed, _, err := core.CloseSource(src)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			undoSweep(t, fmt.Sprintf("seed %d", seed), closed, int64(seed), 60, interp.DefaultMaxInvisible)
		}
	}
}

// TestDeadMarks: whatever replaces the state wholesale kills the marks
// taken before it, the machine's last state is left alone by the refused
// Undo, no machine undoes to another's mark, and the reference has no
// live mark to give.
func TestDeadMarks(t *testing.T) {
	u, err := core.CompileSource(copyCases[0].src)
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
		runSchedule(m, 1, 4)
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
	runSchedule(m, 1, 2)
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
	for _, src := range []string{copyCases[0].src, `
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
			runSchedule(m, 1, 2)
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
	sameAsShadow(t, "after the drop", m, shadow)
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
