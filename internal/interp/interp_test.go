package interp_test

import (
	"strings"
	"testing"

	"reclose/internal/core"
	"reclose/internal/interp"
)

// sys compiles a CLOSED source program into a fresh System.
func sys(t *testing.T, src string) *interp.System {
	t.Helper()
	u := core.MustCompileSource(src)
	s, err := interp.NewSystem(u)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

// runAll drives the system with a fixed chooser, scheduling the lowest
// enabled process, and returns the trace.
func runAll(t *testing.T, s *interp.System, ch interp.Chooser, maxSteps int) []interp.Event {
	t.Helper()
	if out := s.Init(ch); out != nil {
		t.Fatalf("Init: %s", out)
	}
	var trace []interp.Event
	for i := 0; i < maxSteps; i++ {
		en := s.AppendEnabled(nil)
		if len(en) == 0 {
			return trace
		}
		ev, out := s.Step(en[0], ch)
		trace = append(trace, ev)
		if out != nil {
			t.Fatalf("Step: %s (trace %v)", out, trace)
		}
	}
	t.Fatalf("did not quiesce in %d steps", maxSteps)
	return nil
}

func TestArithmeticAndLoops(t *testing.T) {
	s := sys(t, `
chan out[16];
proc main() {
    var i;
    var sum = 0;
    for (i = 1; i <= 5; i = i + 1) {
        sum = sum + i * i;
    }
    send(out, sum);             // 55
    send(out, 17 % 5);          // 2
    send(out, 1 << 4);          // 16
    send(out, 255 & 15);        // 15
    send(out, 0 - 7 / 2);       // -3
    send(out, 6 ^ 3);           // 5
}
process main;
`)
	trace := runAll(t, s, interp.FixedChooser(0), 100)
	want := []string{"55", "2", "16", "15", "-3", "5"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i, w := range want {
		if trace[i].Value.String() != w {
			t.Errorf("send %d = %s, want %s", i, trace[i].Value, w)
		}
	}
}

func TestBooleansAndConditionals(t *testing.T) {
	s := sys(t, `
chan out[16];
proc main() {
    var a = 3 < 5 && 2 == 2;
    var b = !(1 >= 2) || false;
    if (a) { send(out, 1); } else { send(out, 0); }
    if (b) { send(out, 1); } else { send(out, 0); }
    if (a && !b) { send(out, 1); } else { send(out, 0); }
}
process main;
`)
	trace := runAll(t, s, interp.FixedChooser(0), 100)
	got := []string{trace[0].Value.String(), trace[1].Value.String(), trace[2].Value.String()}
	if got[0] != "1" || got[1] != "1" || got[2] != "0" {
		t.Errorf("trace = %v", got)
	}
}

func TestPointersAndArrays(t *testing.T) {
	s := sys(t, `
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
    send(out, a[1]);      // 15
    var x = 7;
    var p = &x;
    bump(p);
    bump(&x);
    send(out, x);         // 9
}
process main;
`)
	trace := runAll(t, s, interp.FixedChooser(0), 100)
	if trace[0].Value.String() != "15" || trace[1].Value.String() != "9" {
		t.Errorf("trace = %v", trace)
	}
}

func TestCallByValueAndRecursion(t *testing.T) {
	s := sys(t, `
chan out[16];
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
proc clobber(x) {
    x = 999;
}
proc main() {
    var r;
    fib(10, &r);
    send(out, r);         // 55
    var y = 5;
    clobber(y);
    send(out, y);         // still 5: parameters are fresh copies
}
process main;
`)
	trace := runAll(t, s, interp.FixedChooser(0), 100)
	if trace[0].Value.String() != "55" {
		t.Errorf("fib(10) = %s, want 55", trace[0].Value)
	}
	if trace[1].Value.String() != "5" {
		t.Errorf("call-by-value violated: y = %s", trace[1].Value)
	}
}

func TestArrayValueSemantics(t *testing.T) {
	s := sys(t, `
chan out[16];
proc poke(a) {
    a[0] = 42;
}
proc main() {
    var a[2];
    a[0] = 1;
    var b = a;
    b[0] = 2;
    send(out, a[0]);   // 1: assignment copies arrays
    poke(a);
    send(out, a[0]);   // 1: parameters copy arrays too
}
process main;
`)
	trace := runAll(t, s, interp.FixedChooser(0), 100)
	if trace[0].Value.String() != "1" || trace[1].Value.String() != "1" {
		t.Errorf("array value semantics violated: %v", trace)
	}
}

func TestChannelsSemaphoresShared(t *testing.T) {
	s := sys(t, `
chan c[2];
sem m = 1;
shared g = 10;
proc sender() {
    var v;
    vread(g, v);
    wait(m);
    send(c, v + 1);
    signal(m);
}
proc receiver() {
    var w;
    recv(c, w);
    vwrite(g, w * 2);
}
process sender;
process receiver;
`)
	if out := s.Init(interp.FixedChooser(0)); out != nil {
		t.Fatalf("Init: %s", out)
	}
	steps := 0
	for len(s.AppendEnabled(nil)) > 0 {
		p := s.AppendEnabled(nil)[0]
		if _, out := s.Step(p, interp.FixedChooser(0)); out != nil {
			t.Fatalf("Step: %s", out)
		}
		steps++
		if steps > 50 {
			t.Fatal("runaway")
		}
	}
	if term, _ := verdict(s); !term {
		t.Fatal("system did not terminate")
	}
	// Objects render first, by name: the channel drained, g written, m
	// released.
	if fp := string(s.AppendFingerprint(nil)); !strings.HasPrefix(fp, "c:[];g:22;m:1;") {
		t.Errorf("final state %s, want g = 22", fp)
	}
}

func TestTossChooser(t *testing.T) {
	s := sys(t, `
chan out[4];
proc main() {
    var x = VS_toss(3);
    send(out, x);
}
process main;
`)
	// Scripted chooser: value 2.
	script := []int{2}
	pos := 0
	ch := interp.ChooserFunc(func(bound int) (int, bool) {
		if pos >= len(script) {
			return 0, false
		}
		v := script[pos]
		pos++
		return v, true
	})
	trace := runAll(t, s, ch, 10)
	if trace[0].Value.String() != "2" {
		t.Errorf("toss = %s, want 2", trace[0].Value)
	}

	// Exhausted chooser yields NeedToss.
	s.Reset()
	out := s.Init(interp.ChooserFunc(func(bound int) (int, bool) { return 0, false }))
	if out == nil || out.Kind != interp.OutNeedToss || out.TossBound != 3 {
		t.Errorf("Init outcome = %v, want NeedToss bound 3", out)
	}
}

func TestRuntimeTraps(t *testing.T) {
	for _, tc := range []struct{ name, body, wantSub string }{
		{"div-zero", "var z = 0; var x = 1 / z;", "division by zero"},
		{"mod-zero", "var z = 0; var x = 1 % z;", "modulo by zero"},
		{"oob", "var a[2]; var i = 5; a[i] = 1;", "bad array index"},
		{"oob-read", "var a[2]; var i = 5; var x = a[i];", "out of bounds"},
		{"bool-arith", "var b = true; var x = b + 1;", "+ on bool"},
		{"branch-int", "var x = 1; if (x) { x = 2; }", "branch on int"},
		{"deref-int", "var x = 1; var y = *x;", "dereference of int"},
		{"type-cmp", "var b = true; var x = 1; var c = b == x;", "comparison of bool and int"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sys(t, "proc main() {\n"+tc.body+"\n}\nprocess main;")
			out := s.Init(interp.FixedChooser(0))
			if out == nil || out.Kind != interp.OutTrap {
				t.Fatalf("outcome = %v, want trap", out)
			}
			if !strings.Contains(out.Msg, tc.wantSub) {
				t.Errorf("trap %q does not mention %q", out.Msg, tc.wantSub)
			}
		})
	}
}

func TestUndefPropagation(t *testing.T) {
	s := sys(t, `
chan out[4];
proc main() {
    var u = undef;
    var x = u + 1;
    var b = u == 3;
    send(out, x);
    send(out, b);
    VS_assert(b); // undef assertions never fire
}
process main;
`)
	trace := runAll(t, s, interp.FixedChooser(0), 10)
	if trace[0].Value.String() != "undef" || trace[1].Value.String() != "undef" {
		t.Errorf("undef did not propagate: %v", trace)
	}
	if trace[2].Op != "VS_assert" {
		t.Errorf("missing assert event: %v", trace)
	}
}

func TestBranchOnUndefTraps(t *testing.T) {
	s := sys(t, `
proc main() {
    var u = undef;
    if (u == 1) { exit; }
}
process main;
`)
	out := s.Init(interp.FixedChooser(0))
	if out == nil || out.Kind != interp.OutTrap || !strings.Contains(out.Msg, "branch on undef") {
		t.Fatalf("outcome = %v, want branch-on-undef trap", out)
	}
}

func TestAssertionViolation(t *testing.T) {
	s := sys(t, `
proc main() {
    var ok = 1 == 2;
    VS_assert(ok);
}
process main;
`)
	if out := s.Init(interp.FixedChooser(0)); out != nil {
		t.Fatalf("Init: %s", out)
	}
	_, out := s.Step(0, interp.FixedChooser(0))
	if out == nil || out.Kind != interp.OutViolation {
		t.Fatalf("outcome = %v, want violation", out)
	}
}

func TestDivergenceDetected(t *testing.T) {
	s := sys(t, `
proc main() {
    var x = 0;
    while (true) { x = x + 1; }
}
process main;
`)
	s.MaxInvisible = 100
	out := s.Init(interp.FixedChooser(0))
	if out == nil || out.Kind != interp.OutDivergence {
		t.Fatalf("outcome = %v, want divergence", out)
	}
}

func TestDeadlockAndTermination(t *testing.T) {
	s := sys(t, `
sem m = 0;
proc main() { wait(m); }
process main;
`)
	if out := s.Init(interp.FixedChooser(0)); out != nil {
		t.Fatalf("Init: %s", out)
	}
	if term, dead := verdict(s); !dead || term {
		t.Error("wait on 0-sem should deadlock")
	}

	s2 := sys(t, `
proc main() { return; }
process main;
`)
	if out := s2.Init(interp.FixedChooser(0)); out != nil {
		t.Fatalf("Init: %s", out)
	}
	if term, dead := verdict(s2); !term || dead {
		t.Error("immediate return should terminate")
	}
}

func TestExitTerminatesProcess(t *testing.T) {
	s := sys(t, `
chan out[4];
proc helper() { exit; }
proc main() {
    send(out, 1);
    helper();
    send(out, 2); // never reached: exit kills the process
}
process main;
`)
	trace := runAll(t, s, interp.FixedChooser(0), 10)
	if len(trace) != 1 {
		t.Errorf("trace = %v, want just the first send", trace)
	}
	if term, _ := verdict(s); !term {
		t.Error("process should have terminated via exit")
	}
}

func TestOpenUnitRejected(t *testing.T) {
	u := core.MustCompileSource(`
chan c[1];
env chan c;
proc main() { var x; recv(c, x); }
process main;
`)
	if _, err := interp.NewSystem(u); err == nil {
		t.Error("open unit accepted by NewSystem")
	}
}

func TestFingerprintDistinguishesStates(t *testing.T) {
	s := sys(t, `
chan c[2];
proc main() {
    var i = 0;
    while (i < 2) {
        send(c, i);
        i = i + 1;
    }
}
process main;
`)
	if out := s.Init(interp.FixedChooser(0)); out != nil {
		t.Fatalf("Init: %s", out)
	}
	f0 := string(s.AppendFingerprint(nil))
	s.Step(0, interp.FixedChooser(0))
	f1 := string(s.AppendFingerprint(nil))
	if f0 == f1 {
		t.Error("fingerprint did not change after a transition")
	}
	s.Reset()
	if out := s.Init(interp.FixedChooser(0)); out != nil {
		t.Fatalf("Init: %s", out)
	}
	if got := string(s.AppendFingerprint(nil)); got != f0 {
		t.Errorf("fingerprint not reproducible after Reset:\n%s\n%s", f0, got)
	}
}

func TestValueHelpers(t *testing.T) {
	if !interp.IntVal(3).Equal(interp.IntVal(3)) || interp.IntVal(3).Equal(interp.IntVal(4)) {
		t.Error("int equality wrong")
	}
	if interp.Undef.Equal(interp.Undef) {
		t.Error("undef must not equal itself")
	}
	a := interp.ArrayVal(2)
	b := a.Copy()
	b.Arr()[0] = interp.IntVal(9)
	if a.Arr()[0].Equal(interp.IntVal(9)) {
		t.Error("Copy aliases the array")
	}
	if interp.True.String() != "true" || interp.IntVal(-2).String() != "-2" || interp.Undef.String() != "undef" {
		t.Error("String forms wrong")
	}
	if interp.ArrayVal(2).String() != "[0 0]" {
		t.Errorf("array string = %s", interp.ArrayVal(2))
	}
}

func TestSwitchExecution(t *testing.T) {
	s := sys(t, `
chan out[8];
proc classify(v) {
    switch (v) {
    case 0:
        send(out, 100);
    case 1, 2:
        send(out, 200);
    default:
        send(out, 300);
    }
}
proc main() {
    var i;
    for (i = 0; i < 4; i = i + 1) {
        classify(i);
    }
}
process main;
`)
	trace := runAll(t, s, interp.FixedChooser(0), 50)
	want := []string{"100", "200", "200", "300"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i, w := range want {
		if trace[i].Value.String() != w {
			t.Errorf("send %d = %s, want %s", i, trace[i].Value, w)
		}
	}
}

func TestBreakContinueExecution(t *testing.T) {
	s := sys(t, `
chan out[16];
proc main() {
    var i;
    for (i = 0; i < 10; i = i + 1) {
        if (i == 2) {
            continue;
        }
        if (i == 5) {
            break;
        }
        send(out, i);
    }
    send(out, 99);
}
process main;
`)
	trace := runAll(t, s, interp.FixedChooser(0), 50)
	want := []string{"0", "1", "3", "4", "99"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i, w := range want {
		if trace[i].Value.String() != w {
			t.Errorf("send %d = %s, want %s", i, trace[i].Value, w)
		}
	}
}

func TestBreakInSwitchContinuesLoop(t *testing.T) {
	s := sys(t, `
chan out[16];
proc main() {
    var i;
    for (i = 0; i < 3; i = i + 1) {
        switch (i) {
        case 1:
            break;
        default:
            send(out, i);
        }
        send(out, 10 + i);
    }
}
process main;
`)
	trace := runAll(t, s, interp.FixedChooser(0), 50)
	// i=0: send 0, send 10; i=1: (break exits switch only) send 11; i=2: send 2, send 12.
	want := []string{"0", "10", "11", "2", "12"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i, w := range want {
		if trace[i].Value.String() != w {
			t.Errorf("send %d = %s, want %s", i, trace[i].Value, w)
		}
	}
}

func TestDaemonQuiescence(t *testing.T) {
	// A daemon blocked forever after the system finishes is quiescence,
	// not deadlock; a blocked non-daemon is a deadlock.
	u := core.MustCompileSource(`
chan c[1];
proc worker() { send(c, 1); }
proc spin() {
    var v;
    while (true) {
        recv(c, v);
    }
}
process worker;
process spin;
`)
	u.Daemons = map[int]bool{1: true}
	s, err := interp.NewSystem(u)
	if err != nil {
		t.Fatal(err)
	}
	if out := s.Init(interp.FixedChooser(0)); out != nil {
		t.Fatal(out)
	}
	for len(s.AppendEnabled(nil)) > 0 {
		if _, out := s.Step(s.AppendEnabled(nil)[0], interp.FixedChooser(0)); out != nil {
			t.Fatal(out)
		}
	}
	term, dead := verdict(s)
	if dead {
		t.Error("blocked daemon misreported as deadlock")
	}
	if !term {
		t.Error("system with only a blocked daemon should count as terminated")
	}

	// Same system without the daemon flag: deadlock.
	u2 := core.MustCompileSource(`
chan c[1];
proc worker() { send(c, 1); }
proc spin() {
    var v;
    while (true) {
        recv(c, v);
    }
}
process worker;
process spin;
`)
	s2, err := interp.NewSystem(u2)
	if err != nil {
		t.Fatal(err)
	}
	if out := s2.Init(interp.FixedChooser(0)); out != nil {
		t.Fatal(out)
	}
	for len(s2.AppendEnabled(nil)) > 0 {
		if _, out := s2.Step(s2.AppendEnabled(nil)[0], interp.FixedChooser(0)); out != nil {
			t.Fatal(out)
		}
	}
	if _, dead := verdict(s2); !dead {
		t.Error("blocked non-daemon should be a deadlock")
	}
}
