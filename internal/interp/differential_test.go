package interp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/interp"
	"reclose/internal/randprog"
)

// This file holds the differential oracle for the interpreters: the
// compiled machine with incremental state hashing on (cached and
// liveness searches), the compiled machine with it off (the stateless
// search, every fingerprint and hash a full walk), and the reference
// string-map interpreter are driven in lockstep over the same unit and
// must agree on every observable — enabled sets, termination/deadlock
// predicates, pending tables (pending_test.go), events, outcomes,
// byte-exact state fingerprints, and the
// canonical state hash (with the incremental hash additionally checked
// against its own full re-walk at every step). The hashing machine's
// fingerprint is the one it assembles from key segments; keyseg_test.go
// drives the same three machines down schedules that also copy, fork
// and reset between the steps.

// stepChooser returns deterministic toss outcomes as a function of its
// own call count, so two independent instances replay the same sequence
// as long as the two interpreters make the same sequence of toss calls
// (which the lockstep assertions enforce indirectly).
type stepChooser struct{ n int }

func (c *stepChooser) Choose(bound int) (int, bool) {
	c.n++
	if bound <= 0 {
		return 0, true
	}
	return (c.n * 31) % (bound + 1), true
}

func sameOutcome(a, b *interp.Outcome) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Kind == b.Kind && a.Msg == b.Msg && a.Proc == b.Proc && a.TossBound == b.TossBound
}

func outcomeStr(o *interp.Outcome) string {
	if o == nil {
		return "<nil>"
	}
	return o.String()
}

// engineNames labels the lockstep machines; index 0 (the compiled
// machine with incremental hashing enabled) is the baseline the others
// are compared against.
var engineNames = []string{"bytecode", "bytecode-full-render", "ref"}

// lockstepMachines builds the three machines over u: two compiled ones,
// incremental state hashing enabled on the first only, and the
// reference.
func lockstepMachines(t *testing.T, label string, u *cfg.Unit) []interp.Machine {
	t.Helper()
	ms := make([]interp.Machine, 0, 3)
	for _, k := range []interp.EngineKind{interp.EngineBytecode, interp.EngineBytecode, interp.EngineRef} {
		m, err := interp.NewMachine(u, k)
		if err != nil {
			t.Fatalf("%s: NewMachine(%v): %v", label, k, err)
		}
		ms = append(ms, m)
	}
	ms[0].(*interp.System).SetStateHashing(true)
	return ms
}

// lockstep drives the three machines over u with an identical schedule
// and asserts agreement at every step.
func lockstep(t *testing.T, label string, u *cfg.Unit, maxSteps int) {
	t.Helper()
	ms := lockstepMachines(t, label, u)
	bc := ms[0].(*interp.System)
	chs := make([]*stepChooser, len(ms))
	outs := make([]*interp.Outcome, len(ms))
	for i, m := range ms {
		chs[i] = &stepChooser{}
		outs[i] = m.Init(chs[i])
	}
	for i := 1; i < len(ms); i++ {
		if !sameOutcome(outs[0], outs[i]) {
			t.Fatalf("%s: Init outcome: %s=%s %s=%s", label,
				engineNames[0], outcomeStr(outs[0]), engineNames[i], outcomeStr(outs[i]))
		}
	}
	if outs[0] != nil {
		return
	}

	for step := 0; step < maxSteps; step++ {
		fp0 := string(ms[0].AppendFingerprint(nil))
		h0 := ms[0].StateHash()
		for i := 1; i < len(ms); i++ {
			if fp := string(ms[i].AppendFingerprint(nil)); fp != fp0 {
				t.Fatalf("%s: step %d: fingerprint mismatch\n %s: %s\n %s: %s",
					label, step, engineNames[0], fp0, engineNames[i], fp)
			}
			if h := ms[i].StateHash(); h != h0 {
				t.Fatalf("%s: step %d: state hash mismatch: %s=%#x %s=%#x",
					label, step, engineNames[0], h0, engineNames[i], h)
			}
		}
		// The rolling hash must equal its own full re-walk at every
		// visible-operation boundary.
		if full := bc.RecomputeStateHash(); full != h0 {
			t.Fatalf("%s: step %d: incremental hash %#x != full re-walk %#x\nstate: %s",
				label, step, h0, full, fp0)
		}
		// The machines' tables agree row for row, and the deadlock and
		// final-state verdict the search draws from them is the
		// reference's AllTerminated/Deadlocked.
		checkPending(t, fmt.Sprintf("%s: step %d", label, step), u, ms, nil)
		en0 := ms[0].AppendEnabled(nil)
		for i := 1; i < len(ms); i++ {
			if en := ms[i].AppendEnabled(nil); fmt.Sprint(en) != fmt.Sprint(en0) {
				t.Fatalf("%s: step %d: enabled %s=%v %s=%v", label, step, engineNames[0], en0, engineNames[i], en)
			}
		}
		for p := 0; p < ms[0].NumProcs(); p++ {
			op0, obj0, ok0 := ms[0].ProcPendingOp(p)
			for i := 1; i < len(ms); i++ {
				opI, objI, okI := ms[i].ProcPendingOp(p)
				if opI != op0 || objI != obj0 || okI != ok0 {
					t.Fatalf("%s: step %d: P%d pending %s=(%s,%s,%v) %s=(%s,%s,%v)",
						label, step, p, engineNames[0], op0, obj0, ok0, engineNames[i], opI, objI, okI)
				}
			}
		}
		if len(en0) == 0 {
			return
		}
		pick := en0[step%len(en0)]
		ev0, o0 := ms[0].Step(pick, chs[0])
		for i := 1; i < len(ms); i++ {
			ev, o := ms[i].Step(pick, chs[i])
			if ev.String() != ev0.String() || ev.Stub != ev0.Stub {
				t.Fatalf("%s: step %d: event %s=%s(stub=%v) %s=%s(stub=%v)",
					label, step, engineNames[0], ev0, ev0.Stub, engineNames[i], ev, ev.Stub)
			}
			if !sameOutcome(o0, o) {
				t.Fatalf("%s: step %d: outcome %s=%s %s=%s",
					label, step, engineNames[0], outcomeStr(o0), engineNames[i], outcomeStr(o))
			}
		}
		if o0 != nil {
			return
		}
	}
}

// TestDifferentialRandomPrograms runs the lockstep oracle over closed
// random programs from internal/randprog.
func TestDifferentialRandomPrograms(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 30
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := randprog.Generate(r, randprog.Config{Processes: 2 + seed%2, Helpers: seed % 3})
		closed, _, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		lockstep(t, fmt.Sprintf("seed %d", seed), closed, 400)
	}
}

// TestDifferentialHandwritten covers constructs the random generator
// exercises rarely or never: pointers across frames, array aliasing,
// every communication object kind, recursion, and each trap class.
func TestDifferentialHandwritten(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"pointers", `
chan out[16];
proc bump(p) {
    *p = *p + 1;
}
proc main() {
    var a[3];
    var i;
    for (i = 0; i < 3; i = i + 1) {
        a[i] = i * 10;
    }
    var q = &a[1];
    *q = *q + 5;
    send(out, a[1]);
    var x = 7;
    var p = &x;
    bump(p);
    bump(&x);
    send(out, x);
    send(out, *p);
}
process main;
`},
		{"recursion", `
chan out[4];
proc fib(n, r) {
    if (n < 2) {
        *r = n;
        return;
    }
    var a;
    var b;
    fib(n - 1, &a);
    fib(n - 2, &b);
    *r = a + b;
}
proc main() {
    var r;
    fib(9, &r);
    send(out, r);
}
process main;
`},
		{"objects", `
chan c[2];
sem s = 1;
shared g = 5;
proc writer() {
    var t;
    wait(s);
    vread(g, t);
    vwrite(g, t + 1);
    signal(s);
    send(c, t);
}
proc reader() {
    var v;
    recv(c, v);
    VS_assert(v >= 5);
}
process writer;
process writer;
process reader;
process reader;
`},
		{"toss", `
chan out[8];
proc main() {
    var k = VS_toss(3);
    var j = VS_toss(2);
    send(out, k * 10 + j);
    VS_assert(k <= 3);
}
process main;
`},
		{"assert-violation", `
proc main() {
    var x = 1;
    VS_assert(x == 2);
}
process main;
`},
		{"trap-div", `
proc main() {
    var z = 0;
    var x = 1 / z;
}
process main;
`},
		{"trap-oob", `
proc main() {
    var a[2];
    var i = 5;
    a[i] = 1;
}
process main;
`},
		{"trap-deref", `
proc main() {
    var x = 1;
    var y = *x;
}
process main;
`},
		{"undef", `
chan out[4];
proc main() {
    var u = undef;
    var x = u + 1;
    send(out, x);
    VS_assert(u == 3);
    send(out, u == u);
}
process main;
`},
		{"deadlock", `
sem a = 1;
sem b = 1;
proc left() {
    wait(a);
    wait(b);
    signal(b);
    signal(a);
}
proc right() {
    wait(b);
    wait(a);
    signal(a);
    signal(b);
}
process left;
process right;
`},
		{"stale-pointer", `
chan out[4];
proc mk(r) {
    var local = 42;
    *r = &local;
}
proc main() {
    var p;
    mk(&p);
    send(out, *p);
}
process main;
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, err := core.CompileSource(tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			lockstep(t, tc.name, u, 300)
		})
	}
}

// TestForkMatchesOriginal forks mid-execution — each of the lockstep
// machines — and checks that the clone renders the same fingerprint and
// state hash and then behaves identically to the original under the
// same schedule. The first runs with incremental hashing on, so this
// also covers the hash state surviving a Fork.
func TestForkMatchesOriginal(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(1000 + seed)))
		src := randprog.Generate(r, randprog.Config{Processes: 2, Helpers: seed % 2})
		closed, _, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for i, sys := range lockstepMachines(t, fmt.Sprintf("seed %d", seed), closed) {
			label := fmt.Sprintf("seed %d/%s", seed, engineNames[i])
			ch := &stepChooser{}
			if out := sys.Init(ch); out != nil {
				continue
			}
			// Run a prefix, then fork.
			for step := 0; step < 5; step++ {
				en := sys.AppendEnabled(nil)
				if len(en) == 0 {
					break
				}
				if _, out := sys.Step(en[step%len(en)], ch); out != nil {
					break
				}
			}
			clone := sys.ForkMachine()
			if got, want := string(clone.AppendFingerprint(nil)), string(sys.AppendFingerprint(nil)); got != want {
				t.Fatalf("%s: fork fingerprint differs\nclone: %s\n orig: %s", label, got, want)
			}
			if got, want := clone.StateHash(), sys.StateHash(); got != want {
				t.Fatalf("%s: fork state hash differs: clone=%#x orig=%#x", label, got, want)
			}
			// Both must evolve identically from here.
			chA := &stepChooser{n: ch.n}
			chB := &stepChooser{n: ch.n}
			for step := 0; step < 100; step++ {
				enA, enB := sys.AppendEnabled(nil), clone.AppendEnabled(nil)
				if fmt.Sprint(enA) != fmt.Sprint(enB) {
					t.Fatalf("%s: step %d: enabled orig=%v clone=%v", label, step, enA, enB)
				}
				if len(enA) == 0 {
					break
				}
				pick := enA[step%len(enA)]
				evA, oA := sys.Step(pick, chA)
				evB, oB := clone.Step(pick, chB)
				if evA.String() != evB.String() || !sameOutcome(oA, oB) {
					t.Fatalf("%s: step %d: orig=(%s,%s) clone=(%s,%s)",
						label, step, evA, outcomeStr(oA), evB, outcomeStr(oB))
				}
				fpA := string(sys.AppendFingerprint(nil))
				fpB := string(clone.AppendFingerprint(nil))
				if fpA != fpB {
					t.Fatalf("%s: step %d: fingerprints diverged\n orig: %s\nclone: %s", label, step, fpA, fpB)
				}
				if hA, hB := sys.StateHash(), clone.StateHash(); hA != hB {
					t.Fatalf("%s: step %d: state hashes diverged: orig=%#x clone=%#x", label, step, hA, hB)
				}
				if oA != nil {
					break
				}
			}
		}
	}
}

// TestForkIsolation checks deep-copy independence in both directions:
// stepping one system never changes the other, even through pointers,
// arrays, and channel payloads captured at fork time.
func TestForkIsolation(t *testing.T) {
	u, err := core.CompileSource(`
chan c[4];
shared g = 0;
proc main() {
    var a[2];
    a[0] = 1;
    var p = &a[1];
    *p = 2;
    send(c, a);
    vwrite(g, 7);
    var i;
    for (i = 0; i < 10; i = i + 1) {
        *p = *p + 1;
        vwrite(g, i);
        send(c, i);
        recv(c, i);
    }
}
process main;
`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := interp.NewSystem(u)
	if err != nil {
		t.Fatal(err)
	}
	ch := interp.FixedChooser(0)
	if out := sys.Init(ch); out != nil {
		t.Fatalf("init: %s", out)
	}
	// Execute the first sends so the channel holds an array payload.
	for i := 0; i < 3; i++ {
		if _, out := sys.Step(0, ch); out != nil {
			t.Fatalf("step %d: %s", i, out)
		}
	}
	clone := sys.Fork()
	before := string(clone.AppendFingerprint(nil))
	origBefore := string(sys.AppendFingerprint(nil))

	// Mutate the original: the clone must not move.
	for i := 0; i < 4; i++ {
		if _, out := sys.Step(0, ch); out != nil {
			break
		}
	}
	if got := string(clone.AppendFingerprint(nil)); got != before {
		t.Fatalf("stepping the original changed the clone\nbefore: %s\n after: %s", before, got)
	}
	// Mutate the clone: the original must not move either.
	origNow := string(sys.AppendFingerprint(nil))
	for i := 0; i < 4; i++ {
		if _, out := clone.Step(0, ch); out != nil {
			break
		}
	}
	if got := string(sys.AppendFingerprint(nil)); got != origNow {
		t.Fatalf("stepping the clone changed the original\nbefore: %s\n after: %s", origNow, got)
	}
	if origBefore == origNow {
		t.Fatalf("original did not advance; the isolation check is vacuous")
	}
}
