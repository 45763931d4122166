package comm_test

import (
	"math/rand"
	"testing"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/comm"
)

func TestChanFIFO(t *testing.T) {
	c := comm.NewChan("c", 2, false)
	if !c.CanSend() || c.CanRecv() {
		t.Fatalf("fresh chan: CanSend=%t CanRecv=%t", c.CanSend(), c.CanRecv())
	}
	if err := c.Send(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(2); err != nil {
		t.Fatal(err)
	}
	if c.CanSend() {
		t.Error("full chan reports CanSend")
	}
	if err := c.Send(3); err == nil {
		t.Error("send on full chan did not error")
	}
	v, stub, err := c.Recv()
	if err != nil || stub || v.(int) != 1 {
		t.Errorf("recv = %v/%t/%v, want 1 (FIFO)", v, stub, err)
	}
	v, _, _ = c.Recv()
	if v.(int) != 2 {
		t.Errorf("second recv = %v, want 2", v)
	}
	if _, _, err := c.Recv(); err == nil {
		t.Error("recv on empty chan did not error")
	}
	c.Send(9)
	c.Reset()
	if c.Len() != 0 || c.CanRecv() {
		t.Error("Reset did not clear the queue")
	}
}

func TestChanStub(t *testing.T) {
	c := comm.NewChan("e", 1, true)
	if !c.EnvFacing() {
		t.Fatal("EnvFacing lost")
	}
	// A stub never blocks and carries no data.
	for i := 0; i < 10; i++ {
		if !c.CanSend() || !c.CanRecv() {
			t.Fatal("stub blocked")
		}
		if err := c.Send(i); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 0 {
		t.Errorf("stub accumulated %d values", c.Len())
	}
	v, stub, err := c.Recv()
	if err != nil || !stub || v != nil {
		t.Errorf("stub recv = %v/%t/%v, want nil/stub", v, stub, err)
	}
	if fp := string(c.AppendFingerprint(nil)); fp != "e:stub" {
		t.Errorf("fingerprint = %q", fp)
	}
}

func TestChanEnabled(t *testing.T) {
	c := comm.NewChan("c", 1, false)
	if !c.Enabled("send") || c.Enabled("recv") || c.Enabled("wait") {
		t.Error("enabledness wrong on empty chan")
	}
	c.Send(1)
	if c.Enabled("send") || !c.Enabled("recv") {
		t.Error("enabledness wrong on full chan")
	}
}

func TestSem(t *testing.T) {
	s := comm.NewSem("s", 1)
	if !s.CanWait() {
		t.Fatal("sem with count 1 cannot wait")
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if s.CanWait() {
		t.Error("sem at 0 reports CanWait")
	}
	if err := s.Wait(); err == nil {
		t.Error("wait at 0 did not error")
	}
	s.Signal()
	s.Signal()
	if s.Count() != 2 {
		t.Errorf("count = %d, want 2", s.Count())
	}
	if !s.Enabled("wait") || !s.Enabled("signal") || s.Enabled("send") {
		t.Error("enabledness wrong")
	}
	s.Reset()
	if s.Count() != 1 {
		t.Errorf("Reset count = %d, want 1", s.Count())
	}
}

func TestShared(t *testing.T) {
	g := comm.NewShared("g", 0)
	if g.Read() != 0 {
		t.Errorf("initial = %v", g.Read())
	}
	g.Write(42)
	if g.Read() != 42 {
		t.Errorf("after write = %v", g.Read())
	}
	if !g.Enabled("vread") || !g.Enabled("vwrite") || g.Enabled("send") {
		t.Error("enabledness wrong")
	}
	g.Reset()
	if g.Read() != 0 {
		t.Errorf("after Reset = %v", g.Read())
	}
}

func TestBuild(t *testing.T) {
	specs := []cfg.ObjectSpec{
		{Name: "c", Kind: ast.ChanObject, Arg: 3},
		{Name: "e", Kind: ast.ChanObject, Arg: 1, EnvFacing: true},
		{Name: "s", Kind: ast.SemObject, Arg: 2},
		{Name: "g", Kind: ast.SharedObject, Arg: 7},
	}
	objs := comm.Build(specs, func(i int64) any { return i * 10 })
	if len(objs) != 4 {
		t.Fatalf("objects = %d", len(objs))
	}
	if objs["c"].Kind() != ast.ChanObject || objs["c"].Name() != "c" {
		t.Error("chan spec wrong")
	}
	if !objs["e"].(*comm.Chan).EnvFacing() {
		t.Error("env-facing lost in Build")
	}
	if objs["s"].(*comm.Sem).Count() != 2 {
		t.Error("sem initial count wrong")
	}
	if objs["g"].(*comm.Shared).Read() != int64(70) {
		t.Error("shared initFn not applied")
	}
}

// TestEnablednessHistoryOnly checks the §2 assumption: enabledness is a
// function of the operation history only, never of the values carried.
func TestEnablednessHistoryOnly(t *testing.T) {
	run := func(vals []any) []bool {
		c := comm.NewChan("c", 2, false)
		var states []bool
		for _, v := range vals {
			states = append(states, c.CanSend(), c.CanRecv())
			if c.CanSend() {
				c.Send(v)
			}
		}
		states = append(states, c.CanSend(), c.CanRecv())
		return states
	}
	a := run([]any{1, 2, 3})
	b := run([]any{-99, 0, 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("enabledness depends on values: %v vs %v", a, b)
		}
	}
}

// TestChanInverses walks random send/recv sequences on a small channel,
// recording each operation's inverse, and unwinds them newest first: the
// queue must pass back through every state it was in, wherever the
// forward operations left its window in the backing array.
func TestChanInverses(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := comm.NewChan("c", 3, false)
		states := []string{string(c.AppendFingerprint(nil))}
		var inverse []func()
		for i := 0; i < 40; i++ {
			if c.CanSend() && (!c.CanRecv() || rng.Intn(2) == 0) {
				if err := c.Send(i); err != nil {
					t.Fatal(err)
				}
				inverse = append(inverse, c.Unsend)
			} else {
				v, _, err := c.Recv()
				if err != nil {
					t.Fatal(err)
				}
				inverse = append(inverse, func() { c.Unrecv(v) })
			}
			states = append(states, string(c.AppendFingerprint(nil)))
			// Unwind part of the way now and then, and go on from there.
			for len(inverse) > 0 && rng.Intn(3) == 0 {
				inverse[len(inverse)-1]()
				inverse, states = inverse[:len(inverse)-1], states[:len(states)-1]
				if got, want := string(c.AppendFingerprint(nil)), states[len(states)-1]; got != want {
					t.Fatalf("seed %d, op %d: unwound to %s, was %s", seed, i, got, want)
				}
			}
		}
	}
	s := comm.NewSem("s", 1)
	s.Signal()
	s.Unsignal()
	if s.Count() != 1 {
		t.Errorf("Unsignal left count %d", s.Count())
	}
}
