package interp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/interp"
	"reclose/internal/mgenv"
	"reclose/internal/randprog"
)

// This file holds the machine judge: the one schedule every program of
// the corpus below, and every FuzzBytecodeLockstep input, runs down. The
// corpus is run by the tests at the end of the file, one a list of
// programs, each drawing its schedules by its own mix of operations.
// Three machines hold one logical state the three ways the explorer
// holds it — the compiled machine with incremental state hashing (the
// cached and liveness searches), the compiled machine rendering every
// fingerprint and hash in full (the stateless search) and the
// reference — and a seeded schedule takes them through every operation
// a search performs on a machine:
//
//   - Reset and Init;
//   - Step, on all three with one process;
//   - ForkMachine, after which each machine's source steps in lockstep
//     with its fork, so stepping either must never show in the other;
//   - Mark, an excursion of one to four transitions keyed as a search
//     keys them, and Undo, on the compiled machines while the reference
//     stays behind as the machine that never left;
//   - unwinding every mark still held, newest first, down to the state
//     before Init.
//
// Every program first runs down one uncut schedule (deep): from Init
// its main line steps by a fixed rule to termination, an abnormal
// outcome or its test's step bound, at the default divergence bound,
// with forks and undone excursions between steps. Then come its seeded
// schedules, if it has any, which reset, unwind and cut runs at random.
//
// At every state all machines must agree on events and outcomes, the
// enabled set, every process's pending operation, byte for byte on the
// fingerprint, on StateHash (the hashing machine's incremental hash
// also against its own full re-walk), and on the pending table, read in
// full and patched from the parent's (pending_test.go). The hashing
// machine's key must be a row of segment ids that decodes to the
// fingerprint, rendered length beside it, shorter than the fingerprint,
// and one to one with it over the program's states; the other machines'
// keys are their fingerprints.

// stepChooser returns deterministic toss outcomes as a function of its
// own call count, so two independent instances replay the same sequence
// as long as the two interpreters make the same sequence of toss calls
// (which the judge's assertions enforce indirectly).
type stepChooser struct{ n int }

func (c *stepChooser) Choose(bound int) (int, bool) {
	c.n++
	if bound <= 0 {
		return 0, true
	}
	return (c.n * 31) % (bound + 1), true
}

func sameOutcome(a, b *interp.Outcome) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// Indices of the judge's three machines.
const (
	jCur  = iota // compiled, incremental hashing on
	jFull        // compiled, hashing off
	jRef         // the reference
)

// judgeStats is what a run of the judge met: the operations it ran, by
// name, the states it keyed and the kinds of pending row it saw.
type judgeStats struct {
	ops       map[string]int
	states    int // distinct states keyed, counted per judge
	collapsed int // of which the key is shorter than the fingerprint
	depth     int // the most main-line steps an uncut schedule took
	seen      pendingSeen
}

// judgeMark is a mark both compiled machines took in one state, and the
// reference's digest of that state.
type judgeMark struct {
	mk     [2]interp.Mark
	digest string
}

// judge is one logical machine state held three ways (jCur, jFull,
// jRef); while a fork is live, src holds the machines forked from.
type judge struct {
	t     *testing.T
	label string
	u     *cfg.Unit
	ms    [3]interp.Machine
	chs   [3]*stepChooser
	src   [3]interp.Machine
	srcCh [3]*stepChooser
	// marks are held from the mark before Init, marks[0], until a fork.
	marks []judgeMark
	// hashingOff is set while a test has switched jCur's hashing off: its
	// key is then the fingerprint, as the others' is.
	hashingOff bool
	// maxInvisible is the divergence bound of the seeded schedules.
	maxInvisible int
	// want is the reference's fingerprint at the last check.
	want string
	// keyOf and fpOf hold the key to the fingerprint, one to one.
	keyOf, fpOf map[string]string
	num         *interp.Numbering
	st          *judgeStats
	// buf is scratch for renders compared and dropped.
	buf []byte
}

func newJudge(t *testing.T, label string, u *cfg.Unit, maxInvisible int, st *judgeStats) *judge {
	t.Helper()
	r := resolveT(t, u)
	ref, err := interp.NewRefSystem(u)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	cur, full := r.NewSystem(), r.NewSystem()
	cur.SetStateHashing(true)
	if maxInvisible <= 0 {
		maxInvisible = interp.DefaultMaxInvisible
	}
	if st == nil {
		st = newJudgeStats()
	}
	j := &judge{t: t, label: label, u: u, ms: [3]interp.Machine{cur, full, ref}, maxInvisible: maxInvisible,
		keyOf: map[string]string{}, fpOf: map[string]string{}, num: interp.NumberUnit(u), st: st}
	j.setMaxInvisible(maxInvisible)
	return j
}

// setMaxInvisible bounds every machine's transitions by n (forks inherit
// the bound).
func (j *judge) setMaxInvisible(n int) {
	for _, m := range j.ms {
		switch m := m.(type) {
		case *interp.System:
			m.MaxInvisible = n
		case *interp.RefSystem:
			m.MaxInvisible = n
		}
	}
}

// cur is the hashing machine.
func (j *judge) cur() *interp.System { return j.ms[jCur].(*interp.System) }

// machines lists every machine in the state: the three, then the fork
// sources.
func (j *judge) machines() []interp.Machine {
	all := j.ms[:]
	if j.src[0] != nil {
		all = append(all[:3:3], j.src[:]...)
	}
	return all
}

// check holds every machine in the state to the reference.
func (j *judge) check(op string) {
	t := j.t
	at := j.label + ": after " + op
	ref := j.ms[jRef]
	want, hash := string(ref.AppendFingerprint(nil)), ref.StateHash()
	en := ref.AppendEnabled(nil)
	_, seen := j.keyOf[want]
	all := j.machines()
	for mi, m := range all {
		hashing := mi%3 == jCur
		for pass := 0; pass < 2 && mi != jRef; pass++ {
			if j.buf = m.AppendFingerprint(j.buf[:0]); string(j.buf) != want {
				t.Fatalf("%s: machine %d's fingerprint (render %d) differs from the reference's\n got: %s\nwant: %s", at, mi, pass, j.buf, want)
			}
			if !hashing {
				break // the second assembly renders nothing: worth asking only of a hashing machine
			}
		}
		if h := m.StateHash(); mi != jRef && h != hash {
			t.Fatalf("%s: machine %d's state hash %#x, the reference's %#x", at, mi, h, hash)
		}
		// A key that is the fingerprint is asked for once in each distinct
		// state; the hashing machine's, which caches segments, every time.
		if hashing || !seen {
			if ids := checkKey(t, at+": machine "+strconv.Itoa(mi), m, want); ids != (hashing && !j.hashingOff) {
				t.Fatalf("%s: machine %d's key is a row of ids: %t", at, mi, ids)
			}
		}
		if s, ok := m.(*interp.System); ok && hashing {
			if full := s.RecomputeStateHash(); full != hash {
				t.Fatalf("%s: machine %d's incremental hash %#x != full re-walk %#x", at, mi, hash, full)
			}
		}
		if got := m.AppendEnabled(nil); !slices.Equal(got, en) {
			t.Fatalf("%s: machine %d's enabled set %v, the reference's %v", at, mi, got, en)
		}
		for p := 0; p < ref.NumProcs(); p++ {
			op0, obj0, ok0 := ref.ProcPendingOp(p)
			if op, obj, ok := m.ProcPendingOp(p); op != op0 || obj != obj0 || ok != ok0 {
				t.Fatalf("%s: P%d pending on machine %d (%s,%s,%v), on the reference (%s,%s,%v)", at, p, mi, op, obj, ok, op0, obj0, ok0)
			}
		}
	}
	j.checkPending(at, all)
	j.want = want
	if !j.hashingOff {
		j.keyed(at, want)
	}
}

// keyed holds the hashing machine's key to the fingerprint one to one,
// and counts the state if it is new.
func (j *judge) keyed(at, fp string) {
	j.buf, _ = j.cur().AppendKey(j.buf[:0], keySegs)
	k, seen := j.keyOf[fp]
	if seen && k != string(j.buf) {
		j.t.Fatalf("%s: one fingerprint, two keys %x and %x\n%s", at, k, j.buf, fp)
	}
	if f, ok := j.fpOf[string(j.buf)]; ok && f != fp {
		j.t.Fatalf("%s: one key %x, two fingerprints\n%s\n%s", at, j.buf, f, fp)
	}
	if seen {
		return
	}
	key := string(j.buf)
	j.keyOf[fp], j.fpOf[key] = key, fp
	j.st.states++
	if len(key) < len(fp) {
		j.st.collapsed++
	}
}

// reset takes every machine to the initial state, checking between Reset
// and Init too, and marks the compiled machines before Init. It reports
// false when Init ends the run.
func (j *judge) reset() bool {
	j.st.ops["reset"]++
	j.src = [3]interp.Machine{}
	for _, m := range j.ms {
		m.Reset()
	}
	j.check("Reset")
	j.marks = append(j.marks[:0], j.mark(true))
	return j.init("Init")
}

// init runs Init on every machine with fresh choosers.
func (j *judge) init(op string) bool {
	var outs [3]*interp.Outcome
	for i, m := range j.ms {
		j.chs[i] = &stepChooser{}
		outs[i] = m.Init(j.chs[i])
	}
	for i := range outs {
		if !sameOutcome(outs[i], outs[jRef]) {
			j.t.Fatalf("%s: %s: machine %d's outcome %v, the reference's %v", j.label, op, i, outs[i], outs[jRef])
		}
	}
	if outs[jRef] != nil {
		return false
	}
	j.check(op)
	return true
}

// mark marks both compiled machines in the current state, with the
// reference's digest of it when the mark is to be kept.
func (j *judge) mark(keep bool) judgeMark {
	mk := judgeMark{mk: [2]interp.Mark{j.ms[jCur].Mark(), j.ms[jFull].Mark()}}
	if keep {
		mk.digest = stateDigest(j.ms[jRef])
	}
	return mk
}

// step runs process p on every machine — a fork's source before the
// fork, which must not move — and reports false on an abnormal outcome
// (after which the machines are fit only for a reset or an unwind).
func (j *judge) step(p int) bool {
	j.st.ops["step"]++
	op := "Step(" + strconv.Itoa(p) + ")"
	at := j.label + ": " + op
	parent := j.ms[jRef].AppendPending(nil)
	all := j.machines()
	chs := append(j.chs[:], j.srcCh[:]...)
	evs := make([]interp.Event, len(all))
	outs := make([]*interp.Outcome, len(all))
	for mi := len(all) - 1; mi >= 0; mi-- {
		evs[mi], outs[mi] = all[mi].Step(p, chs[mi])
		if mi == 3 {
			for fi, f := range j.ms {
				if j.buf = f.AppendFingerprint(j.buf[:0]); string(j.buf) != j.want {
					j.t.Fatalf("%s: stepping the sources moved fork %d\nbefore: %s\n after: %s", at, fi, j.want, j.buf)
				}
			}
		}
	}
	for mi := range all {
		if evs[mi].String() != evs[jRef].String() || evs[mi].Stub != evs[jRef].Stub || !sameOutcome(outs[mi], outs[jRef]) {
			j.t.Fatalf("%s: machine %d: %s(stub=%v) %v, the reference: %s(stub=%v) %v", at, mi,
				evs[mi], evs[mi].Stub, outs[mi], evs[jRef], evs[jRef].Stub, outs[jRef])
		}
	}
	if outs[jRef] != nil {
		return false
	}
	j.check(op)
	j.checkPatch(at, all, parent, p)
	return true
}

// fork goes on with a fork of every machine; the machines forked from
// step with them until the next fork or reset. Marks are the sources'.
func (j *judge) fork() {
	j.st.ops["fork"]++
	for i, m := range j.ms {
		j.src[i], j.srcCh[i] = m, &stepChooser{n: j.chs[i].n}
		j.ms[i] = m.ForkMachine(new(interp.Tally))
	}
	j.marks = j.marks[:0]
	j.check("ForkMachine")
}

// excursion marks the compiled machines, takes them one to four
// transitions away — asking for the hashing machine's key at each, as a
// search does — and undoes to the mark: they must be back in the state
// the reference never left. The mark is kept for unwind while the marks
// held go back to the one before Init (no fork since).
func (j *judge) excursion(rng *rand.Rand) {
	j.st.ops["undo"]++
	mk := j.mark(len(j.marks) > 0)
	if len(j.marks) > 0 {
		j.marks = append(j.marks, mk)
	}
	away := [2]*stepChooser{{n: j.chs[jCur].n}, {n: j.chs[jFull].n}}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		en := j.ms[jFull].AppendEnabled(nil)
		if len(en) == 0 {
			break
		}
		p := en[rng.Intn(len(en))]
		_, o := j.ms[jCur].Step(p, away[0])
		_, of := j.ms[jFull].Step(p, away[1])
		if !sameOutcome(o, of) {
			j.t.Fatalf("%s: excursion step %d: %v, with hashing off %v", j.label, i, o, of)
		}
		if o != nil {
			break
		}
		checkKey(j.t, j.label+": excursion step "+strconv.Itoa(i), j.ms[jCur], string(j.ms[jFull].AppendFingerprint(nil)))
	}
	for i := jCur; i <= jFull; i++ {
		if popped, ok := j.ms[i].Undo(mk.mk[i]); !ok || popped == 0 {
			j.t.Fatalf("%s: machine %d: Undo = %d, %v after an excursion", j.label, i, popped, ok)
		}
	}
	j.check("Undo")
}

// unwind undoes the compiled machines to every mark held, newest first:
// each must be back in the state the reference's digest recorded (its
// hash a full walk), the last in the state before Init, where the
// reference is reset to join them and all three Init again.
func (j *judge) unwind() bool {
	j.st.ops["unwind"]++
	for k := len(j.marks) - 1; k >= 0; k-- {
		at := fmt.Sprintf("%s: unwound to mark %d of %d", j.label, k, len(j.marks))
		for i := jCur; i <= jFull; i++ {
			m := j.ms[i].(*interp.System)
			if _, ok := m.Undo(j.marks[k].mk[i]); !ok {
				j.t.Fatalf("%s: machine %d: the mark is dead", at, i)
			}
			if got := stateDigest(m); got != j.marks[k].digest {
				j.t.Fatalf("%s: machine %d\n got: %s\nwant: %s", at, i, got, j.marks[k].digest)
			}
			checkKey(j.t, at, m, string(m.AppendFingerprint(nil)))
		}
	}
	j.marks = j.marks[:1]
	j.ms[jRef].Reset()
	j.check("unwinding to the mark before Init")
	return j.init("Init after the unwind")
}

// judgeMix is how a schedule draws its operations, in sixteenths: fork
// of them fork, the next undo make an undone excursion, one cuts the
// run (not in an uncut schedule), and the rest step.
type judgeMix struct{ fork, undo int }

var (
	mixSteps    = judgeMix{}
	mixLockstep = judgeMix{fork: 2, undo: 4}
	mixFork     = judgeMix{fork: 5, undo: 2}
	mixUndo     = judgeMix{fork: 1, undo: 7}
)

// schedule drives the judge down the schedule seeded by seed, drawn by
// mix, for ops operations, checking after every one.
func (j *judge) schedule(seed int64, ops int, mix judgeMix) {
	rng := rand.New(rand.NewSource(seed))
	live := false
	for i := 0; i < ops; i++ {
		var en []int
		if live {
			// After an abnormal outcome a machine answers nothing.
			en = j.ms[jRef].AppendEnabled(nil)
		}
		switch r := rng.Intn(16); {
		case !live || len(en) == 0 || r == 0:
			// A run that is over, or one cut at random, ends in an
			// unwind while its marks live (no fork since Init), else in
			// a reset.
			if len(j.marks) > 0 && rng.Intn(2) == 0 {
				live = j.unwind()
			} else {
				live = j.reset()
			}
			if !live {
				return // Init itself ends the run: nothing to schedule
			}
		case r <= mix.fork:
			j.fork()
		case r <= mix.fork+mix.undo:
			j.excursion(rng)
		default:
			live = j.step(en[rng.Intn(len(en))])
		}
	}
}

// deep drives the judge down the uncut schedule seeded by seed: from
// Init, the main line's k-th step runs process en[k mod len(en)] of the
// enabled set en until nothing is enabled, a transition ends abnormally or maxSteps steps
// were taken; between steps mix draws forks and undone excursions, which
// leave the main line where it was. Nothing cuts the run or resets a
// machine on the way, and transitions are bounded by the default
// divergence bound, so a program reaches its deep states and its
// call-stack overflows as a search does. The run ends by unwinding the
// marks held, if no fork dropped them.
func (j *judge) deep(seed int64, maxSteps int, mix judgeMix) {
	j.setMaxInvisible(interp.DefaultMaxInvisible)
	defer func() { j.setMaxInvisible(j.maxInvisible) }()
	rng := rand.New(rand.NewSource(seed))
	if !j.reset() {
		return // Init itself ends the run
	}
	k := 0
	for k < maxSteps {
		en := j.ms[jRef].AppendEnabled(nil)
		if len(en) == 0 {
			break
		}
		switch r := rng.Intn(16); {
		case r >= 1 && r <= mix.fork:
			j.fork()
		case r > mix.fork && r <= mix.fork+mix.undo:
			j.excursion(rng)
		default:
			live := j.step(en[k%len(en)])
			k++
			if !live {
				maxSteps = k
			}
		}
	}
	j.st.depth = max(j.st.depth, k)
	if len(j.marks) > 0 {
		j.unwind()
	}
}

// judgeProgram is one program of the corpus, run down seeds schedules
// with every transition bounded by maxInvisible, after its uncut one.
type judgeProgram struct {
	name                string
	u                   *cfg.Unit
	maxInvisible, seeds int
}

// handwrittenProgram is a hand-written program of the corpus, for what
// the random generators exercise rarely or never: pointers across frames
// and processes and into popped frames, array aliasing, every
// communication object kind, recursion, every way a transition ends.
type handwrittenProgram struct{ name, src string }

// copyCases are every way a pointer or an array can sit in the state at
// a visible operation.
var copyCases = []handwrittenProgram{
	// Every way a pointer or an array can sit in the state at a visible
	// operation.
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

// keyCases are a process that writes through a pointer it received into
// another process's live frame, into that process's frame after the
// callee that owned the cell returned, and into its own frames at two
// depths (the key rules of keyseg_test.go use these three).
var keyCases = []handwrittenProgram{
	{name: "store-into-another-process", src: `
chan c[2];
chan back[2];
proc owner() {
    var x = 5;
    var ack;
    send(c, &x);
    recv(back, ack);
    send(back, x);
    recv(back, ack);
    send(back, x + ack);
}
proc writer() {
    var p;
    var i;
    recv(c, p);
    for (i = 0; i < 3; i = i + 1) {
        *p = *p + 10;
        send(back, i);
    }
}
process owner;
process writer;
`},
	{name: "store-into-a-popped-frame-of-another-process", src: `
chan c[2];
chan out[4];
proc lend() {
    var local = 1;
    send(c, &local);
}
proc owner() {
    var x = 2;
    lend();
    send(out, x);
    send(out, x + 1);
}
proc late() {
    var q;
    var v;
    recv(c, q);
    recv(out, v);
    *q = 77;
    send(out, *q);
}
process owner;
process late;
`},
	{name: "own-frames", src: `
chan out[8];
proc bump(p, n) {
    *p = *p + n;
    send(out, *p);
    if (n > 0) {
        bump(p, n - 1);
    }
}
proc main() {
    var x = 1;
    var a[2];
    var q = &a[1];
    *q = 4;
    bump(&x, 2);
    send(out, x + a[1]);
}
process main;
process main;
`},
}

// undoCases are transitions that end in a trap, a violation or a
// divergence after stores, an exit below two calls, a top-level return,
// tosses, an array declared again, an element pointer gone stale.
var undoCases = []handwrittenProgram{
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

// lockstepCases are pointers across frames, recursion, every object
// kind, tosses, each trap class, undef, a deadlock.
var lockstepCases = []handwrittenProgram{
	{name: "pointers", src: `
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
	{name: "recursion", src: `
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
	{name: "objects", src: `
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
	{name: "toss", src: `
chan out[8];
proc main() {
    var k = VS_toss(3);
    var j = VS_toss(2);
    send(out, k * 10 + j);
    VS_assert(k <= 3);
}
process main;
`},
	{name: "assert-violation", src: `
proc main() {
    var x = 1;
    VS_assert(x == 2);
}
process main;
`},
	{name: "trap-div", src: `
proc main() {
    var z = 0;
    var x = 1 / z;
}
process main;
`},
	{name: "trap-oob", src: `
proc main() {
    var a[2];
    var i = 5;
    a[i] = 1;
}
process main;
`},
	{name: "trap-deref", src: `
proc main() {
    var x = 1;
    var y = *x;
}
process main;
`},
	{name: "undef", src: `
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
	{name: "deadlock", src: `
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
	{name: "stale-pointer", src: `
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
}

// pendingCases are pending rows random schedules seldom produce: a
// process blocked on a full channel beside a terminated one, and a
// VS_assert (no object). The daemons of a most general environment and
// a table wider than one mask word are built in TestPendingTable.
var pendingCases = []handwrittenProgram{
	{name: "blocked-and-terminated", src: `
chan c[1];
proc filler() {
    send(c, 1);
    send(c, 2);
}
proc once() {
    VS_assert(true);
}
process once;
process filler;
`},
}

// handwritten is every hand-written program of the corpus.
var handwritten = slices.Concat(copyCases, keyCases, undoCases, lockstepCases, pendingCases)

// handwrittenSrc returns the source of the hand-written program name.
func handwrittenSrc(t testing.TB, name string) string {
	for _, h := range handwritten {
		if h.name == name {
			return h.src
		}
	}
	t.Fatalf("no hand-written program %q", name)
	return ""
}

// The corpus is run by the tests below, one a list of programs: every
// program goes down the one judge, each test drawing its schedules by
// its own mix.

// judgeOps is the length of one schedule.
const judgeOps = 150

func newJudgeStats() *judgeStats { return &judgeStats{ops: map[string]int{}} }

// judgePlan is how a test runs each program of its list: down an uncut
// schedule of at most depth steps, drawing forks and excursions by deep,
// then down the program's seeded schedules, drawn by mix. A test's depth
// is at least the number of steps the walker it replaced took on its
// programs.
type judgePlan struct {
	depth     int
	deep, mix judgeMix
}

// run takes one program down its schedules.
func (st *judgeStats) run(t *testing.T, p judgeProgram, plan judgePlan) {
	j := newJudge(t, p.name, p.u, p.maxInvisible, st)
	j.label = p.name + "/uncut"
	j.deep(0, plan.depth, plan.deep)
	for seed := 0; seed < p.seeds; seed++ {
		j.label = fmt.Sprintf("%s/schedule %d", p.name, seed)
		j.schedule(int64(seed), judgeOps, plan.mix)
	}
}

// require fails t unless the run performed every operation and every
// key it met is shorter than its fingerprint.
func (st *judgeStats) require(t *testing.T) {
	t.Helper()
	for _, op := range []string{"reset", "step", "fork", "undo", "unwind"} {
		if st.ops[op] == 0 {
			t.Errorf("no schedule ran a %s", op)
		}
	}
	if st.collapsed != st.states {
		t.Errorf("%d distinct states keyed, %d with a key shorter than the fingerprint", st.states, st.collapsed)
	}
	t.Logf("operations %v, %d distinct states keyed, uncut runs up to %d steps deep", st.ops, st.states, st.depth)
}

// runCorpus runs the judge over progs by plan, a subtest a program when
// sub, and requires what require does of the run. It returns what the
// run met, or nil when -run left a program out.
func runCorpus(t *testing.T, progs []judgeProgram, plan judgePlan, sub bool) *judgeStats {
	t.Helper()
	st, ran := newJudgeStats(), 0
	for _, p := range progs {
		if !sub {
			st.run(t, p, plan)
			ran++
			continue
		}
		t.Run(p.name, func(t *testing.T) {
			ran++
			st.run(t, p, plan)
		})
	}
	if ran < len(progs) {
		return nil
	}
	st.require(t)
	return st
}

// compileCases compiles hand-written programs, each run down seeds
// schedules: eight in the test of its own list, four in another's.
func compileCases(t *testing.T, seeds int, lists ...[]handwrittenProgram) []judgeProgram {
	t.Helper()
	var c []judgeProgram
	for _, h := range slices.Concat(lists...) {
		u, err := core.CompileSource(h.src)
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		c = append(c, judgeProgram{name: h.name, u: u, maxInvisible: 5000, seeds: seeds})
	}
	return c
}

// generated closes the randprog.Generate programs of seeds base to
// base+n-1 (a fifth of them under -short), configured by cfg, each run
// down its uncut schedule and one seeded one.
func generated(t *testing.T, base, n int, cfg func(seed int) randprog.Config) []judgeProgram {
	t.Helper()
	if testing.Short() {
		n /= 5
	}
	var c []judgeProgram
	for seed := base; seed < base+n; seed++ {
		src := randprog.Generate(rand.New(rand.NewSource(int64(seed))), cfg(seed))
		u, _, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		c = append(c, judgeProgram{name: fmt.Sprintf("seed %d", seed), u: u, maxInvisible: 2000, seeds: 1})
	}
	return c
}

// generateConfig is the generator's configuration of most random
// programs: two or three processes and up to two helpers.
func generateConfig(seed int) randprog.Config {
	return randprog.Config{Processes: 2 + seed%2, Helpers: seed % 3}
}

// TestDifferentialHandwritten runs the judge over lockstepCases.
func TestDifferentialHandwritten(t *testing.T) {
	t.Parallel()
	runCorpus(t, compileCases(t, 8, lockstepCases), judgePlan{300, mixSteps, mixLockstep}, true)
}

// TestCopyFromHandwritten runs the judge over copyCases, forking often.
func TestCopyFromHandwritten(t *testing.T) {
	t.Parallel()
	runCorpus(t, compileCases(t, 8, copyCases), judgePlan{44, mixFork, mixFork}, true)
}

// TestKeySegmentsMatchFullRender runs the judge over random programs,
// keyCases and copyCases.
func TestKeySegmentsMatchFullRender(t *testing.T) {
	t.Parallel()
	runCorpus(t, slices.Concat(generated(t, 3000, 60, generateConfig), compileCases(t, 8, keyCases), compileCases(t, 4, copyCases)), judgePlan{150, mixLockstep, mixLockstep}, true)
}

// TestUndoHandwritten runs the judge over undoCases, keyCases and
// copyCases, undoing often.
func TestUndoHandwritten(t *testing.T) {
	t.Parallel()
	runCorpus(t, slices.Concat(compileCases(t, 8, undoCases), compileCases(t, 4, keyCases, copyCases)), judgePlan{40, mixUndo, mixUndo}, true)
}

// TestPendingTable runs the judge over programs whose pending tables
// hold the rows random schedules seldom produce, and fails unless each
// met the rows it is there for: a blocked, a terminated process and an
// assert; the daemons of a most general environment; a table wider than
// one mask word, with blocked and terminated rows.
func TestPendingTable(t *testing.T) {
	t.Parallel()
	progs := compileCases(t, 8, pendingCases)
	u, _, err := mgenv.ComposeSource(`
chan in[1];
chan out[1];
env chan in;
proc main() {
    var v;
    recv(in, v);
    send(out, v);
}
process main;
`, 2)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, judgeProgram{name: "daemons", u: u, seeds: 4})
	var b strings.Builder
	b.WriteString("sem s = 1;\nproc w() {\n    wait(s);\n    signal(s);\n}\n")
	for i := 0; i < 70; i++ {
		b.WriteString("process w;\n")
	}
	if u, err = core.CompileSource(b.String()); err != nil {
		t.Fatal(err)
	}
	progs = append(progs, judgeProgram{name: "wide", u: u, seeds: 1})
	met := map[string]func(s pendingSeen) bool{
		"blocked-and-terminated": func(s pendingSeen) bool { return s.blocked && s.terminated && s.assert },
		"daemons":                func(s pendingSeen) bool { return s.daemon },
		"wide":                   func(s pendingSeen) bool { return s.widest > 64 && s.blocked && s.terminated },
	}
	st, ran := newJudgeStats(), 0
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			ran++
			st.seen = pendingSeen{}
			st.run(t, p, judgePlan{150, mixLockstep, mixLockstep})
			if !met[p.name](st.seen) {
				t.Fatalf("the schedules missed a kind of pending row: %+v", st.seen)
			}
		})
	}
	if ran == len(progs) {
		st.require(t)
	}
}

// TestDifferentialRandomPrograms runs the judge over closed random
// programs, and fails unless they keyed at least a thousand distinct
// states (in proportion under -short, where a fifth of them run).
func TestDifferentialRandomPrograms(t *testing.T) {
	t.Parallel()
	progs := generated(t, 0, 150, generateConfig)
	st := runCorpus(t, progs, judgePlan{400, mixSteps, mixLockstep}, false)
	if want := 1000 * len(progs) / 150; st.states < want {
		t.Errorf("%d distinct states keyed, want at least %d", st.states, want)
	}
}

// TestForkMatchesOriginal runs the judge, forking often, over random
// programs of two processes.
func TestForkMatchesOriginal(t *testing.T) {
	t.Parallel()
	runCorpus(t, generated(t, 1000, 60, func(seed int) randprog.Config {
		return randprog.Config{Processes: 2, Helpers: seed % 2}
	}), judgePlan{105, mixFork, mixFork}, false)
}

// TestCopyFromRandomPrograms runs the judge, forking often, over random
// programs (configured by their index in the list, not their seed).
func TestCopyFromRandomPrograms(t *testing.T) {
	t.Parallel()
	runCorpus(t, generated(t, 2000, 60, func(seed int) randprog.Config {
		return generateConfig(seed - 2000)
	}), judgePlan{48, mixFork, mixFork}, false)
}

// TestUndoRandomPrograms runs the judge, undoing often, over random
// programs: those of TestDifferentialRandomPrograms down their uncut
// schedules only (their seeded ones run there), and seeds 2000-2059.
func TestUndoRandomPrograms(t *testing.T) {
	t.Parallel()
	diff := generated(t, 0, 150, generateConfig)
	for i := range diff {
		diff[i].seeds = 0
	}
	runCorpus(t, slices.Concat(diff, generated(t, 2000, 60, generateConfig)), judgePlan{60, mixUndo, mixUndo}, false)
}

// TestPointerPrograms runs the judge over the closed randprog.Pointers
// programs: loads and stores through pointers into a caller's frame,
// array elements, and the traps of pointer arithmetic and bad indices.
// The closer refuses a program that stores through an env-dependent
// pointer (7 of the first 150), and nothing else.
func TestPointerPrograms(t *testing.T) {
	t.Parallel()
	n := 150
	if testing.Short() {
		n = 30
	}
	var progs []judgeProgram
	for seed := 0; seed < n; seed++ {
		src := randprog.Pointers(rand.New(rand.NewSource(int64(seed))))
		u, _, err := core.CloseSource(src)
		if err != nil {
			if !strings.Contains(err.Error(), "stores through an environment-dependent pointer") {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			continue
		}
		progs = append(progs, judgeProgram{name: fmt.Sprintf("pointers seed %d", seed), u: u, maxInvisible: 1000, seeds: 1})
	}
	if len(progs) < n*9/10 {
		t.Fatalf("only %d of %d pointer programs close", len(progs), n)
	}
	runCorpus(t, progs, judgePlan{200, mixLockstep, mixLockstep}, false)
}
