package interp_test

import (
	"testing"

	"reclose/internal/core"
	"reclose/internal/interp"
)

// fingerprintSys compiles a small closed system and advances it to a
// mid-execution state so the fingerprint covers objects, stacks, and
// stores.
func fingerprintSys(t testing.TB) *interp.System {
	t.Helper()
	src := `
chan work[2];
sem lock = 1;
shared flag = 0;
proc helper(n) {
    var a[3];
    a[1] = n;
    send(work, a[1] + 1);
}
proc p() {
    var i;
    for (i = 0; i < 2; i = i + 1) {
        wait(lock);
        helper(i);
        vwrite(flag, i);
        signal(lock);
    }
}
proc q() {
    var v;
    recv(work, v);
    recv(work, v);
    VS_assert(v > 0);
}
process p;
process q;
`
	unit, err := core.CompileSource(src)
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	sys, err := interp.NewSystem(unit)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	ch := interp.FixedChooser(0)
	if out := sys.Init(ch); out != nil {
		t.Fatalf("Init: %v", out)
	}
	// Take a few deterministic steps to populate channel contents and
	// call frames.
	for i := 0; i < 3; i++ {
		en := sys.AppendEnabled(nil)
		if len(en) == 0 {
			break
		}
		if _, out := sys.Step(en[0], ch); out != nil {
			t.Fatalf("Step %d: %v", i, out)
		}
	}
	return sys
}

// TestAppendFingerprintMatchesString checks that the streaming form
// renders the same string whatever it appends to: a fresh slice, a
// reused buffer, or one holding a prefix it must leave alone.
func TestAppendFingerprintMatchesString(t *testing.T) {
	sys := fingerprintSys(t)
	want := string(sys.AppendFingerprint(nil))
	if want == "" {
		t.Fatal("empty fingerprint")
	}
	if got := string(sys.AppendFingerprint([]byte("prefix|"))); got != "prefix|"+want {
		t.Errorf("AppendFingerprint after a prefix = %q, want %q", got, "prefix|"+want)
	}
	// A reused buffer must produce the same bytes.
	buf := make([]byte, 0, 256)
	buf = sys.AppendFingerprint(buf[:0])
	buf = sys.AppendFingerprint(buf[:0])
	if string(buf) != want {
		t.Errorf("reused-buffer AppendFingerprint = %q, want %q", string(buf), want)
	}
}

// TestAppendFingerprintAllocs is the allocation guard for the replay
// hot path: fingerprinting into a reused buffer must stay within a
// small constant allocation budget (the old implementation built a
// fresh sorted string per call).
func TestAppendFingerprintAllocs(t *testing.T) {
	sys := fingerprintSys(t)
	buf := make([]byte, 0, 4096)
	buf = sys.AppendFingerprint(buf[:0]) // warm the name scratch
	allocs := testing.AllocsPerRun(200, func() {
		buf = sys.AppendFingerprint(buf[:0])
	})
	// Channel payloads are rendered through fmt and may box once per
	// queued value; everything else must be allocation-free.
	const budget = 4
	if allocs > budget {
		t.Errorf("AppendFingerprint allocates %.1f per call, budget %d", allocs, budget)
	}
}
