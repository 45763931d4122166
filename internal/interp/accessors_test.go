package interp_test

import (
	"strings"
	"testing"

	"reclose/internal/interp"
)

func TestProcAccessors(t *testing.T) {
	s := sys(t, `
chan c[1];
sem m = 1;
proc main() {
    wait(m);
    send(c, 1);
    signal(m);
}
process main;
`)
	if out := s.Init(interp.FixedChooser(0)); out != nil {
		t.Fatal(out)
	}
	p := s.Procs[0]
	if p.Index != 0 || p.TopProc != "main" || p.Status() != interp.Running {
		t.Errorf("proc metadata wrong: %+v", p)
	}
	proc, node := p.At()
	if proc != "main" || node < 0 {
		t.Errorf("At() = %q, %d", proc, node)
	}
	op, obj, ok := p.PendingOp()
	if !ok || op != "wait" || obj != "m" {
		t.Errorf("PendingOp() = %q, %q, %t", op, obj, ok)
	}

	// Run to completion; the accessors flip to terminated forms.
	for len(s.AppendEnabled(nil)) > 0 {
		if _, out := s.Step(0, interp.FixedChooser(0)); out != nil {
			t.Fatal(out)
		}
	}
	if p.Status() != interp.Terminated {
		t.Error("process should be terminated")
	}
	if _, node := p.At(); node != -1 {
		t.Errorf("At() after termination = %d, want -1", node)
	}
	if _, _, ok := p.PendingOp(); ok {
		t.Error("PendingOp() after termination should report !ok")
	}
}

func TestEventString(t *testing.T) {
	ev := interp.Event{Proc: 2, Op: "send", Object: "work", Value: interp.IntVal(9), HasVal: true}
	if got := ev.String(); got != "P2:send(work)=9" {
		t.Errorf("Event.String() = %q", got)
	}
	assertEv := interp.Event{Proc: 0, Op: "VS_assert", Value: interp.False, HasVal: true}
	if got := assertEv.String(); got != "P0:VS_assert=false" {
		t.Errorf("assert event = %q", got)
	}
	bare := interp.Event{Proc: 1, Op: "wait", Object: "m"}
	if got := bare.String(); got != "P1:wait(m)" {
		t.Errorf("bare event = %q", got)
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[string]*interp.Outcome{
		"assertion violated": {Kind: interp.OutViolation, Proc: 1, Msg: "VS_assert(ok)"},
		"runtime error":      {Kind: interp.OutTrap, Proc: 0, Msg: "division by zero"},
		"divergence":         {Kind: interp.OutDivergence, Proc: 2, Msg: "budget"},
		"needs a VS_toss":    {Kind: interp.OutNeedToss, Proc: 0, TossBound: 3},
	}
	for want, out := range cases {
		if !strings.Contains(out.String(), want) {
			t.Errorf("outcome %v renders as %q, want mention of %q", out.Kind, out.String(), want)
		}
	}
}

func TestStackDepthLimit(t *testing.T) {
	s := sys(t, `
proc rec(n) {
    rec(n + 1);
}
proc main() {
    rec(0);
}
process main;
`)
	out := s.Init(interp.FixedChooser(0))
	if out == nil || out.Kind != interp.OutTrap || !strings.Contains(out.Msg, "stack overflow") {
		t.Fatalf("outcome = %v, want stack overflow trap", out)
	}
}
