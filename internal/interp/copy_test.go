package interp_test

import (
	"fmt"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/interp"
)

// This file pins rules of the compiled machine's state copy, Fork
// (fork.go), and of the value semantics a copy relies on; the machine
// judge (judge_test.go) forks every machine of every schedule and steps
// each fork in lockstep with its source.

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

// advance resets m, runs Init and then n steps of its first enabled
// process, or fewer if the run ends.
func advance(m interp.Machine, n int) {
	ch := &stepChooser{}
	m.Reset()
	for out := m.Init(ch); out == nil && n > 0; n-- {
		en := m.AppendEnabled(nil)
		if len(en) == 0 {
			return
		}
		_, out = m.Step(en[0], ch)
	}
}

// TestForkClonesStalePointers pins the identity map: Fork of a state
// holding a pointer into a popped frame clones the target on demand, and
// the fork then behaves like the original — at every prefix of the run,
// on all three machines of the judge.
func TestForkClonesStalePointers(t *testing.T) {
	u, err := core.CompileSource(handwrittenSrc(t, "pinned-and-stale"))
	if err != nil {
		t.Fatal(err)
	}
	j := newJudge(t, "pinned-and-stale", u, 0, nil)
	for prefix := 0; prefix <= 8; prefix++ {
		j.label = fmt.Sprintf("prefix %d", prefix)
		live := j.reset()
		for step := 0; live && step < prefix+12; step++ {
			if step == prefix {
				j.fork()
			}
			en := j.ms[jRef].AppendEnabled(nil)
			if len(en) == 0 {
				break
			}
			live = j.step(en[0])
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
	for i, m := range newJudge(t, "send-copies", u, 0, nil).ms {
		ch := interp.FixedChooser(0)
		if out := m.Init(ch); out != nil {
			t.Fatalf("machine %d: init: %s", i, out)
		}
		for step := 0; len(m.AppendEnabled(nil)) > 0; step++ {
			ev, out := m.Step(0, ch)
			if out != nil {
				t.Fatalf("machine %d: step %d (%s): %s", i, step, ev, out)
			}
			if step == 0 && ev.String() != "P0:send(c)=[1 0]" {
				t.Errorf("machine %d: send event %s, want the value sent", i, ev)
			}
		}
		if term, _ := verdict(m); !term {
			t.Fatalf("machine %d: did not terminate", i)
		}
	}
}
