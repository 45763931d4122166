package interp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/comm"
	"reclose/internal/core"
	"reclose/internal/interp"
	"reclose/internal/randprog"
)

// This file tests the compiled machine's state copy, Fork (fork.go): a
// machine and its fork are indistinguishable and independent.

// copyModes are the two ways the explorer runs the compiled machine:
// with incremental state hashing (cached and liveness searches) and
// without (the stateless search).
var copyModes = []struct {
	name    string
	hashing bool
}{{"hashing", true}, {"full-render", false}}

// resolveT compiles u once.
func resolveT(t testing.TB, u *cfg.Unit) *interp.Resolution {
	t.Helper()
	r, err := interp.Resolve(u)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return r
}

// newCopyMachine builds a compiled machine over r, with incremental
// hashing on when asked so the copied hash state is covered.
func newCopyMachine(r *interp.Resolution, hashing bool) *interp.System {
	m := r.NewSystem()
	m.SetStateHashing(hashing)
	return m
}

// runSchedule resets m and drives it n steps down the schedule seeded by
// seed. It returns the chooser position, and false when the run ended
// (abnormal outcome, nothing enabled) before n steps.
func runSchedule(m interp.Machine, seed int64, n int) (tosses int, ok bool) {
	rng := rand.New(rand.NewSource(seed))
	ch := &stepChooser{}
	m.Reset()
	if out := m.Init(ch); out != nil {
		return ch.n, false
	}
	for i := 0; i < n; i++ {
		en := m.AppendEnabled(nil)
		if len(en) == 0 {
			return ch.n, false
		}
		if _, out := m.Step(en[rng.Intn(len(en))], ch); out != nil {
			return ch.n, false
		}
	}
	return ch.n, true
}

// sameState fails the test unless a and b render the same fingerprint
// and state hash, and the key of each stands for that fingerprint.
func sameState(t *testing.T, label string, a, b interp.Machine) {
	t.Helper()
	fa, fb := string(a.AppendFingerprint(nil)), string(b.AppendFingerprint(nil))
	if fa != fb {
		t.Fatalf("%s: fingerprints differ\n src: %s\n dst: %s", label, fa, fb)
	}
	checkKey(t, label+": src", a, fa)
	checkKey(t, label+": dst", b, fa)
	if ha, hb := a.StateHash(), b.StateHash(); ha != hb {
		t.Fatalf("%s: state hashes differ: src=%#x dst=%#x", label, ha, hb)
	}
	// On a hashing machine this holds the copied rolling hash to the
	// full re-walk (with hashing off both sides are the walk).
	if sb, ok := b.(*interp.System); ok {
		if h, full := sb.StateHash(), sb.RecomputeStateHash(); h != full {
			t.Fatalf("%s: copied incremental hash %#x != full re-walk %#x", label, h, full)
		}
	}
}

// copyLockstep brings src to the state prefix steps down schedule seed,
// forks it, and steps the two in lockstep down a second seeded schedule:
// they must emit identical events, outcomes, fingerprints and hashes,
// and stepping either must never show in the other.
func copyLockstep(t *testing.T, label string, src interp.Machine, seed int64, prefix, steps int) {
	t.Helper()
	tosses, _ := runSchedule(src, seed, prefix)
	dst := src.ForkMachine()
	sameState(t, label+": after Fork", src, dst)

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	chA, chB := &stepChooser{n: tosses}, &stepChooser{n: tosses}
	for step := 0; step < steps; step++ {
		enA, enB := src.AppendEnabled(nil), dst.AppendEnabled(nil)
		if fmt.Sprint(enA) != fmt.Sprint(enB) {
			t.Fatalf("%s: step %d: enabled src=%v dst=%v", label, step, enA, enB)
		}
		if len(enA) == 0 {
			break
		}
		pick := enA[rng.Intn(len(enA))]
		before := string(dst.AppendFingerprint(nil))
		evA, oA := src.Step(pick, chA)
		if got := string(dst.AppendFingerprint(nil)); got != before {
			t.Fatalf("%s: step %d: stepping src changed dst\nbefore: %s\n after: %s", label, step, before, got)
		}
		after := string(src.AppendFingerprint(nil))
		evB, oB := dst.Step(pick, chB)
		if got := string(src.AppendFingerprint(nil)); got != after {
			t.Fatalf("%s: step %d: stepping dst changed src\nbefore: %s\n after: %s", label, step, after, got)
		}
		if evA.String() != evB.String() || evA.Stub != evB.Stub || !sameOutcome(oA, oB) {
			t.Fatalf("%s: step %d: src=(%s,%s) dst=(%s,%s)", label, step, evA, outcomeStr(oA), evB, outcomeStr(oB))
		}
		sameState(t, fmt.Sprintf("%s: step %d", label, step), src, dst)
		if oA != nil {
			break
		}
	}
}

// copySweep runs copyLockstep over every prefix length up to maxPrefix
// with hashing on and off, reusing one src for each so every fork is of
// a machine dirtied by the previous round — different stack shapes,
// queue lengths, pinned frames.
func copySweep(t *testing.T, label string, u *cfg.Unit, seed int64, maxPrefix, steps int) {
	t.Helper()
	r := resolveT(t, u)
	for _, k := range copyModes {
		src := newCopyMachine(r, k.hashing)
		for prefix := 0; prefix <= maxPrefix; prefix++ {
			l := fmt.Sprintf("%s/%s/prefix %d", label, k.name, prefix)
			copyLockstep(t, l, src, seed+int64(prefix), prefix, steps)
		}
	}
}

// TestCopyFromRandomPrograms is the Fork property test over closed
// random programs (it keeps the name it had when the sweep also ran
// the in-place overwrite, which is gone).
func TestCopyFromRandomPrograms(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(2000 + seed)))
		src := randprog.Generate(r, randprog.Config{Processes: 2 + seed%2, Helpers: seed % 3})
		closed, _, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		copySweep(t, fmt.Sprintf("seed %d", seed), closed, int64(seed), 8, 40)
	}
}

// copyCases are the hand-written programs for what the generator never
// emits: every way a pointer or an array can sit in the state at a
// visible operation.
var copyCases = []struct{ name, src string }{
	{name: "pointer-into-caller-frame", src: `
chan out[16];
proc bump(p, n) {
    send(out, *p);
    *p = *p + n;
    send(out, *p);
    if (n > 0) {
        bump(p, n - 1);
    }
    send(out, *p);
}
proc main() {
    var x = 7;
    var y = 1;
    bump(&x, 2);
    send(out, x);
    bump(&y, 1);
    send(out, x + y);
}
process main;
process main;
`},
	{name: "arrays", src: `
chan c[4];
shared g = 0;
proc main() {
    var a[3];
    var b[2];
    var i;
    for (i = 0; i < 3; i = i + 1) {
        a[i] = i * 10;
        send(c, a[i]);
        var q = &a[i];
        *q = *q + 1;
        vwrite(g, a[i]);
        var got;
        recv(c, got);
        b[i % 2] = got;
    }
    send(c, a);
    a[0] = 99;
    recv(c, b);
    VS_assert(b[0] == 1);
    vwrite(g, b);
    b[1] = 5;
    vread(g, a);
    VS_assert(a[1] == 11);
}
process main;
`},
	{name: "pinned-and-stale", src: `
chan out[8];
proc mk(r) {
    var local = 42;
    send(out, local);
    *r = &local;
}
proc main() {
    var p;
    var x = 3;
    mk(&p);
    send(out, *p);
    *p = *p + 1;
    send(out, *p);
    p = &x;
    send(out, *p);
    recv(out, x);
    send(out, *p);
}
process main;
`},
	{name: "pointer-in-channel", src: `
chan c[2];
chan done[2];
shared g = 0;
proc owner() {
    var x = 5;
    var a[2];
    var ack;
    send(c, &x);
    send(c, &a[1]);
    recv(done, ack);
    vwrite(g, x + a[1]);
    recv(done, ack);
    vwrite(g, x + a[1] + ack);
}
proc user() {
    var p;
    var q;
    recv(c, p);
    *p = *p + 1;
    send(done, *p);
    recv(c, q);
    *q = 40;
    vwrite(g, &q);
    send(done, *q);
}
process owner;
process user;
`},
}

// TestCopyFromHandwritten runs the Fork sweep over the pointer and
// array cases, the pointer into a popped frame included.
func TestCopyFromHandwritten(t *testing.T) {
	for _, tc := range copyCases {
		t.Run(tc.name, func(t *testing.T) {
			u, err := core.CompileSource(tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for seed := int64(0); seed < 4; seed++ {
				copySweep(t, tc.name, u, seed, 14, 30)
			}
		})
	}
}

// TestForkClonesStalePointers pins the identity map: Fork of a state
// holding a pointer into a popped frame clones the target on demand, and
// the fork then behaves like the original.
func TestForkClonesStalePointers(t *testing.T) {
	u, err := core.CompileSource(copyCases[2].src)
	if err != nil {
		t.Fatal(err)
	}
	r := resolveT(t, u)
	for _, k := range copyModes {
		sys := newCopyMachine(r, k.hashing)
		for prefix := 0; prefix <= 8; prefix++ {
			tosses, _ := runSchedule(sys, 0, prefix)
			clone := sys.ForkMachine()
			label := fmt.Sprintf("%s/prefix %d", k.name, prefix)
			sameState(t, label, sys, clone)
			chA, chB := &stepChooser{n: tosses}, &stepChooser{n: tosses}
			for step := 0; step < 12; step++ {
				en := sys.AppendEnabled(nil)
				if len(en) == 0 {
					break
				}
				evA, oA := sys.Step(en[0], chA)
				evB, oB := clone.Step(en[0], chB)
				if evA.String() != evB.String() || !sameOutcome(oA, oB) {
					t.Fatalf("%s: step %d: orig=(%s,%s) fork=(%s,%s)", label, step, evA, outcomeStr(oA), evB, outcomeStr(oB))
				}
				sameState(t, fmt.Sprintf("%s: step %d", label, step), sys, clone)
			}
		}
	}
}

// TestPayloadFingerprintBytes pins comm's allocation-free payload
// rendering to the reflective one it replaced: for every Value kind the
// bytes a channel and a shared variable append are exactly fmt's.
func TestPayloadFingerprintBytes(t *testing.T) {
	cell := &interp.Cell{}
	arr := interp.ArrayVal(3)
	arr.Arr[1] = interp.IntVal(-4)
	arr.Arr[2] = interp.PtrVal(interp.Pointer{Cell: cell, Elem: -1})
	for _, v := range []interp.Value{
		interp.Undef,
		interp.IntVal(0), interp.IntVal(-17), interp.IntVal(1 << 40),
		interp.True, interp.False,
		interp.PtrVal(interp.Pointer{Cell: cell, Elem: -1}),
		interp.PtrVal(interp.Pointer{Cell: cell, Elem: 2}),
		arr, interp.ArrayVal(0),
	} {
		c := comm.NewChan("c", 2, false)
		if err := c.Send(v); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(v); err != nil {
			t.Fatal(err)
		}
		if got, want := string(c.AppendFingerprint(nil)), fmt.Sprintf("c:[%v %v]", v, v); got != want {
			t.Errorf("chan payload %v renders %q, want %q", v, got, want)
		}
		s := comm.NewShared("g", v)
		if got, want := string(s.AppendFingerprint(nil)), string(fmt.Append([]byte("g:"), v)); got != want {
			t.Errorf("shared payload %v renders %q, want %q", v, got, want)
		}
	}
}

// TestSendCopiesArrays pins the value semantics of arrays across
// communication objects on every machine: a message in flight, and a value
// parked in a shared variable, never alias the sender's variable, so a
// later element store cannot rewrite them (which is also what lets a
// state copy, which keeps no such alias, behave like its source).
func TestSendCopiesArrays(t *testing.T) {
	u, err := core.CompileSource(`
chan c[2];
shared g = 0;
proc main() {
    var a[2];
    var b[2];
    a[0] = 1;
    send(c, a);
    vwrite(g, a);
    a[0] = 7;
    recv(c, b);
    VS_assert(b[0] == 1);
    vread(g, b);
    VS_assert(b[0] == 1);
}
process main;
`)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range lockstepMachines(t, "send-copies", u) {
		ch := interp.FixedChooser(0)
		if out := m.Init(ch); out != nil {
			t.Fatalf("%s: init: %s", engineNames[i], out)
		}
		for step := 0; len(m.AppendEnabled(nil)) > 0; step++ {
			ev, out := m.Step(0, ch)
			if out != nil {
				t.Fatalf("%s: step %d (%s): %s", engineNames[i], step, ev, out)
			}
			if step == 0 && ev.String() != "P0:send(c)=[1 0]" {
				t.Errorf("%s: send event %s, want the value sent", engineNames[i], ev)
			}
		}
		if term, _ := verdict(m); !term {
			t.Fatalf("%s: did not terminate", engineNames[i])
		}
	}
}
