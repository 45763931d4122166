package interp_test

import (
	"math/rand"
	"slices"
	"testing"

	"reclose/internal/core"
	"reclose/internal/interp"
	"reclose/internal/randprog"
)

// TestEnabledAfterTrap steps randprog.Generate seed 8 (two processes, two
// helpers), whose recursion ends in a call-stack overflow, to its trap on
// the compiled machine and on the reference, and asks both for their
// enabled sets and pending rows there: the reference must answer as the
// compiled machine does, not panic.
func TestEnabledAfterTrap(t *testing.T) {
	src := randprog.Generate(rand.New(rand.NewSource(8)), randprog.Config{Processes: 2, Helpers: 2})
	u, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var ms [2]interp.Machine
	for i, k := range []interp.EngineKind{interp.EngineBytecode, interp.EngineRef} {
		if ms[i], err = interp.NewMachine(u, k); err != nil {
			t.Fatal(err)
		}
	}
	ch := interp.ChooserFunc(func(int) (int, bool) { return 0, true })
	for _, m := range ms {
		if out := m.Init(ch); out != nil {
			t.Fatalf("Init: %v", out)
		}
	}
	trapped := false
	for k := 0; k < 400 && !trapped; k++ {
		en := ms[0].AppendEnabled(nil)
		if ref := ms[1].AppendEnabled(nil); !slices.Equal(en, ref) {
			t.Fatalf("step %d: enabled %v, reference %v", k, en, ref)
		}
		if len(en) == 0 {
			break
		}
		p := en[k%len(en)]
		_, out := ms[0].Step(p, ch)
		_, rout := ms[1].Step(p, ch)
		if (out == nil) != (rout == nil) || out != nil && out.Kind != rout.Kind {
			t.Fatalf("step %d: outcome %v, reference %v", k, out, rout)
		}
		trapped = out != nil && out.Kind == interp.OutTrap
	}
	if !trapped {
		t.Fatal("seed 8 no longer reaches its trap: pick a program that does")
	}
	en, ref := ms[0].AppendEnabled(nil), ms[1].AppendEnabled(nil)
	if !slices.Equal(en, ref) {
		t.Errorf("after the trap: enabled %v, reference %v", en, ref)
	}
	pend, rpend := ms[0].AppendPending(nil), ms[1].AppendPending(nil)
	if !slices.Equal(pend, rpend) {
		t.Errorf("after the trap: pending %v, reference %v", pend, rpend)
	}
}
