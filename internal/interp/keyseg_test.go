package interp_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/interp"
	"reclose/internal/obs"
	"reclose/internal/randprog"
	"reclose/internal/statecache"
)

// This file tests that a hashing machine's fingerprint — put together
// from the key segments its processes and objects carry, re-rendering
// only the invalid ones — is byte for byte the full render of a machine
// with hashing off and of the reference, whatever was done to the
// machine since its segments were last rendered.

// keySegs is the segment table of every key this package's tests ask
// for: as in a search, one table serves machines that are copied into
// each other, over whatever programs.
var keySegs = new(statecache.Segments)

// decodeKey renders the fingerprint a key of segment ids stands for.
func decodeKey(t *testing.T, tab *statecache.Segments, key []byte) string {
	t.Helper()
	if len(key)%4 != 0 {
		t.Fatalf("a key of %d bytes is not a row of ids", len(key))
	}
	var out []byte
	for ; len(key) > 0; key = key[4:] {
		out = tab.AppendText(out, binary.LittleEndian.Uint32(key))
	}
	return string(out)
}

// checkKey fails the test unless m's key under keySegs stands for the
// fingerprint want, with want's length beside it: want itself, or a row
// of ids that decodes to want byte for byte — it reports which. It asks
// twice; the second answer looks nothing up.
func checkKey(t *testing.T, label string, m interp.Machine, want string) (ids bool) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		key, rendered := m.AppendKey(nil, keySegs)
		got := string(key)
		if ids = got != want; ids {
			got = decodeKey(t, keySegs, key)
		}
		if got != want || rendered != len(want) {
			t.Fatalf("%s (key %d): the key stands for %d bytes\n  %s\nwant %d\n  %s", label, pass, rendered, got, len(want), want)
		}
	}
	return ids
}

// keyRig is one logical machine state held three ways: cur is the
// hashing machine under test, full (a compiled machine with hashing
// off, as the stateless search runs it) and ref the oracles that render
// every key in full.
type keyRig struct {
	t              *testing.T
	label          string
	u              *cfg.Unit
	cur, full, ref interp.Machine
	chs            [3]*stepChooser
	// hashingOff is set while a test has switched cur's hashing off: its
	// key is then the fingerprint, as the oracles' is.
	hashingOff bool
}

func newKeyRig(t *testing.T, label string, u *cfg.Unit) *keyRig {
	t.Helper()
	r := resolveT(t, u)
	ref, err := interp.NewMachine(u, interp.EngineRef)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	k := &keyRig{t: t, label: label, u: u,
		cur:  newCopyMachine(r, true),
		full: newCopyMachine(r, false),
		ref:  ref,
	}
	return k
}

func (k *keyRig) each(f func(i int, m interp.Machine)) {
	for i, m := range []interp.Machine{k.cur, k.full, k.ref} {
		f(i, m)
	}
}

// check compares the assembled key with both full renders, twice: the
// second assembly renders nothing and must say the same. It also holds
// the three pending tables to each other (pending_test.go).
func (k *keyRig) check(op string) {
	k.t.Helper()
	want := string(k.full.AppendFingerprint(nil))
	if r := string(k.ref.AppendFingerprint(nil)); r != want {
		k.t.Fatalf("%s: after %s: the oracles disagree\nfull: %s\n ref: %s", k.label, op, want, r)
	}
	for pass := 0; pass < 2; pass++ {
		if got := string(k.cur.AppendFingerprint(nil)); got != want {
			k.t.Fatalf("%s: after %s (assembly %d): assembled key differs from the full render\n got: %s\nwant: %s",
				k.label, op, pass, got, want)
		}
	}
	if ids := checkKey(k.t, k.label+": after "+op, k.cur, want); ids == k.hashingOff {
		k.t.Fatalf("%s: after %s: hashing off is %v and the key a row of ids is %v", k.label, op, k.hashingOff, ids)
	}
	if checkKey(k.t, k.label+": after "+op+": full", k.full, want) || checkKey(k.t, k.label+": after "+op+": ref", k.ref, want) {
		k.t.Fatalf("%s: after %s: an oracle's key is not its fingerprint", k.label, op)
	}
	if h, full := k.cur.StateHash(), k.cur.(*interp.System).RecomputeStateHash(); h != full {
		k.t.Fatalf("%s: after %s: incremental hash %#x != full re-walk %#x", k.label, op, h, full)
	}
	// The pending table travels with the state the same way.
	checkPending(k.t, k.label+": after "+op, k.u, []interp.Machine{k.cur, k.full, k.ref}, nil)
}

// reset takes all three to the initial state, checking the key between
// Reset and Init too. It reports false when Init ends the run.
func (k *keyRig) reset() bool {
	k.t.Helper()
	k.each(func(i int, m interp.Machine) { m.Reset() })
	k.check("Reset")
	ok := true
	k.each(func(i int, m interp.Machine) {
		k.chs[i] = &stepChooser{}
		if m.Init(k.chs[i]) != nil {
			ok = false
		}
	})
	if ok {
		k.check("Init")
	}
	return ok
}

// step runs process p on all three and reports false on an abnormal
// outcome (after which the machines are only fit for reset).
func (k *keyRig) step(p int) bool {
	k.t.Helper()
	ok := true
	k.each(func(i int, m interp.Machine) {
		if _, out := m.Step(p, k.chs[i]); out != nil {
			ok = false
		}
	})
	if ok {
		k.check(fmt.Sprintf("Step(%d)", p))
	}
	return ok
}

// fork goes on with a fork of the current machine.
func (k *keyRig) fork() {
	k.t.Helper()
	k.cur = k.cur.ForkMachine()
	k.check("ForkMachine")
}

// keySchedule drives a rig down a seeded schedule that interleaves
// steps with forks and resets, checking the key after every operation.
func keySchedule(t *testing.T, label string, u *cfg.Unit, seed int64, ops int) {
	t.Helper()
	k := newKeyRig(t, label, u)
	rng := rand.New(rand.NewSource(seed))
	live := false
	for i := 0; i < ops; i++ {
		en := k.cur.AppendEnabled(nil)
		switch r := rng.Intn(16); {
		case !live || len(en) == 0 || r == 0:
			if live = k.reset(); !live {
				return // Init itself ends the run: nothing to schedule
			}
		case r <= 4:
			k.fork()
		default:
			live = k.step(en[rng.Intn(len(en))])
		}
	}
}

// keyCases are the programs of the schedule test beyond copyCases: a
// process that writes through a pointer it received into another
// process's live frame, into that process's frame after the callee that
// owned the cell returned, and into its own frames at two depths.
var keyCases = []struct{ name, src string }{
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

// TestKeySegmentsMatchFullRender runs the schedule over random
// programs and over every hand-written pointer program.
func TestKeySegmentsMatchFullRender(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(3000 + seed)))
		src := randprog.Generate(r, randprog.Config{Processes: 2 + seed%2, Helpers: seed % 3})
		closed, _, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		keySchedule(t, fmt.Sprintf("seed %d", seed), closed, int64(seed), 120)
	}
	progs := append([]struct{ name, src string }(nil), keyCases...)
	for _, tc := range copyCases {
		progs = append(progs, struct{ name, src string }{tc.name, tc.src})
	}
	for _, tc := range progs {
		t.Run(tc.name, func(t *testing.T) {
			u, err := core.CompileSource(tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for seed := int64(0); seed < 8; seed++ {
				keySchedule(t, tc.name, u, seed, 150)
			}
		})
	}
}

// compileKeyCase compiles keyCases[i] into a fresh rig at the initial
// state.
func compileKeyCase(t *testing.T, i int) *keyRig {
	t.Helper()
	u, err := core.CompileSource(keyCases[i].src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := newKeyRig(t, keyCases[i].name, u)
	if !k.reset() {
		t.Fatal("Init ended the run")
	}
	return k
}

// The tests below pin one invalidation rule each: every one renders the
// key (so all segments are valid), does the one thing the rule is
// about, and renders again. Taking the rule out of the interpreter
// makes exactly that check fail.

// Rule: Step invalidates the process it runs.
func TestKeyRuleStep(t *testing.T) {
	k := compileKeyCase(t, 2)
	if !k.step(0) || !k.step(1) || !k.step(0) {
		t.Fatal("run ended early")
	}
}

// Rule: Reset invalidates every process, and so does Init — the key is
// rendered between the two, so each is on its own.
func TestKeyRuleResetInit(t *testing.T) {
	k := compileKeyCase(t, 2)
	if !k.step(0) || !k.step(1) {
		t.Fatal("run ended early")
	}
	if !k.reset() {
		t.Fatal("Init ended the run")
	}
}

// Rule: switching hashing on invalidates every process. While it is off
// a store into another process goes unrecorded, so the owner's segment
// from before would be stale.
func TestKeyRuleHashingSwitchedOn(t *testing.T) {
	k := compileKeyCase(t, 0)
	if !k.step(0) {
		t.Fatal("run ended early")
	}
	k.cur.(*interp.System).SetStateHashing(false)
	k.hashingOff = true
	if !k.step(1) {
		t.Fatal("run ended early")
	}
	k.cur.(*interp.System).SetStateHashing(true)
	k.hashingOff = false
	k.check("SetStateHashing(true)")
}

// Rule: a store through a pointer into a live frame of another process
// invalidates that process, which did not run.
func TestKeyRuleStoreIntoAnotherProcess(t *testing.T) {
	k := compileKeyCase(t, 0)
	// owner sends &x and blocks; each writer step then adds 10 to the
	// owner's x in its invisible part.
	for _, p := range []int{0, 1, 1} {
		if !k.step(p) {
			t.Fatal("run ended early")
		}
	}
}

// A store into a frame its process has popped changes no key, and must
// not disturb the ones that hold.
func TestKeyStoreIntoPoppedFrame(t *testing.T) {
	k := compileKeyCase(t, 1)
	for _, p := range []int{0, 1, 0, 1, 1} {
		if !k.step(p) {
			t.Fatal("run ended early")
		}
	}
}

// Rule: a copy carries the segments of the state it copies, and the
// copy of a copy does.
func TestKeyRuleCopyCarriesSegments(t *testing.T) {
	k := compileKeyCase(t, 2)
	if !k.step(0) {
		t.Fatal("run ended early")
	}
	k.fork()
	if !k.step(1) {
		t.Fatal("run ended early")
	}
	k.fork()
	if !k.step(0) {
		t.Fatal("run ended early")
	}
}

// TestKeySegmentWork counts the work instead of timing it: a key after
// a step re-renders the stepped process and nothing else — stores
// through pointers into the process's own frames included — and a
// forked machine renders nothing until it steps.
func TestKeySegmentWork(t *testing.T) {
	k := compileKeyCase(t, 2)
	var keys, segs obs.Counter
	met := interp.Metrics{Keys: &keys, Segs: &segs}
	k.cur.SetMetrics(met)
	rendered := func(op string, want int64) {
		t.Helper()
		s0, k0 := segs.Load(), keys.Load()
		k.cur.AppendFingerprint(nil)
		if got := segs.Load() - s0; got != want || keys.Load()-k0 != 1 {
			t.Fatalf("key after %s rendered %d segments in %d assemblies, want %d in 1", op, got, keys.Load()-k0, want)
		}
	}
	rendered("an assembly", 0)
	for i := 0; i < 6; i++ {
		p := i % 2
		if _, out := k.cur.Step(p, k.chs[0]); out != nil {
			t.Fatalf("step %d: %s", i, out)
		}
		rendered("a step with own-frame pointer stores", 1)
		k.cur = k.cur.ForkMachine()
		rendered("ForkMachine", 0)
	}
}

// The tests below pin the rules a segment's id travels by (hash.go), one
// each as above: the key is asked for, so every id is looked up, the one
// thing the rule is about is done, and the key is asked for again.

// idPair is a hashing machine and a full-render shadow of it over src,
// both at the initial state, and a check that the key of a machine in the
// shadow's state stands for the shadow's fingerprint.
func idPair(t *testing.T, src string) (m, shadow *interp.System, same func(op string, m *interp.System)) {
	t.Helper()
	u, err := core.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r := resolveT(t, u)
	m, shadow = newCopyMachine(r, true), newCopyMachine(r, false)
	if m.Init(&stepChooser{}) != nil || shadow.Init(&stepChooser{}) != nil {
		t.Fatal("Init ended the run")
	}
	same = func(op string, m *interp.System) {
		t.Helper()
		if !checkKey(t, "after "+op, m, string(shadow.AppendFingerprint(nil))) {
			t.Fatalf("after %s: the hashing machine's key is its fingerprint", op)
		}
	}
	same("Init", m)
	return m, shadow, same
}

// stepBoth runs process p on every machine.
func stepBoth(t *testing.T, p int, ms ...*interp.System) {
	t.Helper()
	for _, m := range ms {
		if _, out := m.Step(p, &stepChooser{}); out != nil {
			t.Fatalf("Step(%d): %s", p, out)
		}
	}
}

// Rule: rendering a segment zeroes its id. A vread leaves its object as
// it was, so the first steps re-render a process segment and nothing
// else; the vwrite after them re-renders the object's.
func TestKeyIDRuleRendered(t *testing.T) {
	m, shadow, same := idPair(t, `
shared g = 3;
proc main() {
    var v;
    vread(g, v);
    vread(g, v);
    vwrite(g, v + 1);
    vread(g, v);
}
process main;
`)
	for i := 0; i < 4; i++ {
		stepBoth(t, 0, m, shadow)
		same(fmt.Sprintf("step %d", i), m)
	}
}

// Rule: the trail carries the id with the segment. Undo puts the process
// segment of the marked state back and says it is valid, and re-renders
// the object's; the ids left in the machine are the later state's.
func TestKeyIDRuleUndo(t *testing.T) {
	m, shadow, same := idPair(t, keyCases[2].src)
	for _, p := range []int{0, 1, 0} {
		mk, smk := m.Mark(), shadow.Mark()
		stepBoth(t, p, m, shadow)
		same("a step", m)
		if _, ok := m.Undo(mk); !ok {
			t.Fatal("mark dead")
		}
		shadow.Undo(smk)
		same("its undo", m)
		stepBoth(t, p, m, shadow)
		same("the step again", m)
	}
}

// Rule: a copy carries the ids of the state it copies, objects' and
// processes'.
func TestKeyIDRuleCopy(t *testing.T) {
	m, shadow, same := idPair(t, keyCases[2].src)
	stepBoth(t, 0, m, shadow)
	same("a step", m)
	m = m.Fork()
	same("Fork", m)
	stepBoth(t, 1, m, shadow)
	same("a step of the fork", m)
}

// Rule: ids are one table's. Asked for a key under another table, the
// machine looks every segment up again, those an undo puts back included.
func TestKeyIDRuleOtherTable(t *testing.T) {
	m, shadow, same := idPair(t, keyCases[0].src)
	mk, smk := m.Mark(), shadow.Mark()
	stepBoth(t, 0, m, shadow)
	same("a step", m)
	other := new(statecache.Segments)
	other.Intern(1, []byte("a segment the first table does not have at this id"))
	under := func(op string) {
		t.Helper()
		key, rendered := m.AppendKey(nil, other)
		want := string(shadow.AppendFingerprint(nil))
		if got := decodeKey(t, other, key); got != want || rendered != len(want) {
			t.Fatalf("after %s the key under another table stands for\n  %s\nwant\n  %s", op, got, want)
		}
	}
	under("a step")
	if _, ok := m.Undo(mk); !ok {
		t.Fatal("mark dead")
	}
	shadow.Undo(smk)
	under("an undo to a state keyed under the first")
	same("going back to the first table", m)
}

// countingTable counts the lookups a machine makes.
type countingTable struct {
	*statecache.Segments
	n int
}

func (c *countingTable) Intern(h uint64, seg []byte) uint32 {
	c.n++
	return c.Segments.Intern(h, seg)
}

// TestKeyLookupWork counts table lookups as TestKeySegmentWork counts
// renderings: a key after a step looks up the stepped process and the
// object it operated on, and a second key, a key after an undo or a
// fork's none at all.
func TestKeyLookupWork(t *testing.T) {
	m, _, _ := idPair(t, keyCases[2].src)
	tab := &countingTable{Segments: new(statecache.Segments)}
	lookups := func(op string, want int) {
		t.Helper()
		n0 := tab.n
		m.AppendKey(nil, tab)
		if got := tab.n - n0; got != want {
			t.Fatalf("the key after %s made %d lookups, want %d", op, got, want)
		}
	}
	lookups("a change of table", 3) // two processes and the channel
	lookups("a key", 0)
	mk := m.Mark()
	stepBoth(t, 0, m)
	lookups("a step", 2)
	if _, ok := m.Undo(mk); !ok {
		t.Fatal("mark dead")
	}
	lookups("an undo", 0)
	stepBoth(t, 1, m)
	lookups("a step", 2)
	m = m.Fork()
	lookups("Fork", 0)
}
