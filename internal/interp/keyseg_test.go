package interp_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"reclose/internal/core"
	"reclose/internal/interp"
	"reclose/internal/statecache"
)

// This file pins the rules a hashing machine's key segments are kept
// by (hash.go), one rule a test; the machine judge (judge_test.go) holds
// the key to the full render at every state of every schedule.

// keySegs is the segment table of every key this package's tests ask
// for: as in a search, one table serves machines that are copied into
// each other, over whatever programs.
var keySegs = new(statecache.Segments)

// decodeKey renders the fingerprint a key of uvarint segment ids stands
// for.
func decodeKey(t *testing.T, tab *statecache.Segments, key []byte) string {
	var out []byte
	segs, _ := tab.Size()
	for rest := key; len(rest) > 0; {
		id, n := binary.Uvarint(rest)
		if n <= 0 || id == 0 || id > uint64(segs) {
			t.Fatalf("the key %x is not a row of ids", key)
		}
		out = tab.AppendText(out, uint32(id))
		rest = rest[n:]
	}
	return string(out)
}

// checkKey fails the test unless m's key under keySegs stands for the
// fingerprint want, with want's length beside it: want itself, or a row
// of ids that decodes to want byte for byte — it reports which. A row of
// ids is asked for twice: the second answer looks nothing up, and must
// be the first.
func checkKey(t *testing.T, label string, m interp.Machine, want string) (ids bool) {
	key, rendered := m.AppendKey(nil, keySegs)
	got := string(key)
	if ids = got != want; ids {
		got = decodeKey(t, keySegs, key)
	}
	if got != want || rendered != len(want) {
		t.Fatalf("%s: the key stands for %d bytes\n  %s\nwant %d\n  %s", label, rendered, got, len(want), want)
	}
	if !ids {
		return false // a fingerprint is rendered afresh each time: nothing to ask twice
	}
	if again, n := m.AppendKey(nil, keySegs); string(again) != string(key) || n != rendered {
		t.Fatalf("%s: asked again, the key is %x for %d bytes, first %x for %d", label, again, n, key, rendered)
	}
	return true
}

// compileKeyCase compiles the hand-written program name into a judge
// at the initial state.
func compileKeyCase(t *testing.T, name string) *judge {
	t.Helper()
	u, err := core.CompileSource(handwrittenSrc(t, name))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := newJudge(t, name, u, 0, nil)
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
	k := compileKeyCase(t, "own-frames")
	if !k.step(0) || !k.step(1) || !k.step(0) {
		t.Fatal("run ended early")
	}
}

// Rule: Reset invalidates every process, and so does Init — the key is
// rendered between the two, so each is on its own.
func TestKeyRuleResetInit(t *testing.T) {
	k := compileKeyCase(t, "own-frames")
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
	k := compileKeyCase(t, "store-into-another-process")
	if !k.step(0) {
		t.Fatal("run ended early")
	}
	k.cur().SetStateHashing(false)
	k.hashingOff = true
	if !k.step(1) {
		t.Fatal("run ended early")
	}
	k.cur().SetStateHashing(true)
	k.hashingOff = false
	k.check("SetStateHashing(true)")
}

// Rule: a store through a pointer into a live frame of another process
// invalidates that process, which did not run.
func TestKeyRuleStoreIntoAnotherProcess(t *testing.T) {
	k := compileKeyCase(t, "store-into-another-process")
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
	k := compileKeyCase(t, "store-into-a-popped-frame-of-another-process")
	for _, p := range []int{0, 1, 0, 1, 1} {
		if !k.step(p) {
			t.Fatal("run ended early")
		}
	}
}

// Rule: a copy carries the segments of the state it copies, and the
// copy of a copy does.
func TestKeyRuleCopyCarriesSegments(t *testing.T) {
	k := compileKeyCase(t, "own-frames")
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
	k := compileKeyCase(t, "own-frames")
	var tal interp.Tally
	k.cur().SetTally(&tal)
	rendered := func(op string, want int64) {
		t.Helper()
		s0, k0 := tal.Segs, tal.Keys
		k.ms[jCur].AppendFingerprint(nil)
		if got := tal.Segs - s0; got != want || tal.Keys-k0 != 1 {
			t.Fatalf("key after %s rendered %d segments in %d assemblies, want %d in 1", op, got, tal.Keys-k0, want)
		}
	}
	rendered("an assembly", 0)
	for i := 0; i < 6; i++ {
		p := i % 2
		if _, out := k.ms[jCur].Step(p, k.chs[jCur]); out != nil {
			t.Fatalf("step %d: %s", i, out)
		}
		rendered("a step with own-frame pointer stores", 1)
		k.ms[jCur] = k.ms[jCur].ForkMachine(&tal)
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
	m, shadow, same := idPair(t, handwrittenSrc(t, "own-frames"))
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
	m, shadow, same := idPair(t, handwrittenSrc(t, "own-frames"))
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
	m, shadow, same := idPair(t, handwrittenSrc(t, "store-into-another-process"))
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
	m, _, _ := idPair(t, handwrittenSrc(t, "own-frames"))
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
