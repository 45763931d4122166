package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/interp"
	"reclose/internal/mgenv"
)

// This file holds the pending table (pending.go) to its specification.
// checkPending is called by the lockstep harness after every Init and
// Step (differential_test.go) and by the key rig after every Reset,
// Init, Step and ForkMachine (keyseg_test.go), so the random
// programs, copyCases, keyCases and the fuzz target all run it;
// TestPendingTable adds the states those programs rarely reach.

// pendingSeen records which kinds of row a run of checkPending came
// across, for tests that must not pass vacuously.
type pendingSeen struct {
	blocked, terminated, daemon, assert bool
	widest                              int
}

// verdict reads a state the way the search does — through its pending
// table, by explore.scanEnabled's rule: with no process enabled the
// state is a deadlock if a process other than a daemon is still
// running, and final otherwise.
func verdict(m interp.Machine) (terminated, deadlocked bool) {
	stuck := false
	for _, pd := range m.AppendPending(nil) {
		if pd.Flags&interp.PendEnabled != 0 {
			return false, false
		}
		stuck = stuck || pd.Flags&(interp.PendRunning|interp.PendDaemon) == interp.PendRunning
	}
	return !stuck, stuck
}

// checkPending compares the machines' pending tables: every machine's
// table must equal the first one's row for row, and ms holds the
// reference, whose table must say exactly what the reference answers
// when asked the old way, one process and one string at a time — the
// compiled machine answers those questions through its table only.
// Each machine's status and pending operation must agree with its rows.
func checkPending(t *testing.T, label string, u *cfg.Unit, ms []interp.Machine, seen *pendingSeen) {
	t.Helper()
	num := interp.NumberUnit(u)
	var first []interp.Pending
	var ref *interp.RefSystem
	for mi, m := range ms {
		tab := m.AppendPending(nil)
		if len(tab) != m.NumProcs() {
			t.Fatalf("%s: machine %d: table has %d rows for %d processes", label, mi, len(tab), m.NumProcs())
		}
		if mi == 0 {
			first = tab
		} else if fmt.Sprint(tab) != fmt.Sprint(first) {
			t.Fatalf("%s: machine %d's table differs from machine 0's\n got %v\nwant %v", label, mi, tab, first)
		}
		for p, pd := range tab {
			running := m.ProcStatus(p) == interp.Running
			_, obj, _ := m.ProcPendingOp(p) // "" for none
			if running != (pd.Flags&interp.PendRunning != 0) || num.Object(obj) != pd.Obj {
				t.Fatalf("%s: machine %d: row %d is %+v; the process says running=%t, object %q", label, mi, p, pd, running, obj)
			}
		}
		if r, ok := m.(*interp.RefSystem); ok {
			ref = r
		}
	}
	if ref == nil {
		t.Fatalf("%s: no reference machine to hold the tables to", label)
	}
	for p, pd := range first {
		want := interp.Pending{Obj: -1, Site: -1, Slot: -1}
		if ref.ProcStatus(p) == interp.Running {
			want.Flags |= interp.PendRunning
		}
		if op, obj, ok := ref.ProcPendingOp(p); ok {
			proc, node := ref.Procs[p].At()
			want.Obj = num.Object(obj)
			if base, ok := num.SiteBase[proc]; ok {
				want.Site = int32(base + node)
			}
			switch op {
			case "send", "wait", "vwrite":
				want.Slot = 0
			case "recv", "signal", "vread":
				want.Slot = 1
			}
		}
		if ref.Enabled(p) {
			want.Flags |= interp.PendEnabled
		}
		if ref.ProcProgress(p) {
			want.Flags |= interp.PendProgress
		}
		if u.Daemons[p] {
			want.Flags |= interp.PendDaemon
		}
		if pd != want {
			t.Fatalf("%s: row %d is %+v, the reference's process says %+v", label, p, pd, want)
		}
		if seen != nil {
			seen.blocked = seen.blocked || pd.Obj >= 0 && pd.Flags&interp.PendEnabled == 0
			seen.terminated = seen.terminated || pd.Flags&interp.PendRunning == 0
			seen.daemon = seen.daemon || pd.Flags&interp.PendDaemon != 0
			seen.assert = seen.assert || pd.Obj < 0 && pd.Site >= 0
		}
	}
	// What the search derives from the table (explore.scanEnabled) is
	// what the reference's own predicates say.
	if term, dead := verdict(ms[0]); term != ref.AllTerminated() || dead != ref.Deadlocked() {
		t.Fatalf("%s: table says terminated=%t deadlocked=%t, the reference AllTerminated=%t Deadlocked=%t",
			label, term, dead, ref.AllTerminated(), ref.Deadlocked())
	}
	if seen != nil && len(first) > seen.widest {
		seen.widest = len(first)
	}
}

// pendingWalk drives the lockstep machines down one schedule (always the
// enabled process chosen by pick), checking the tables at every state.
func pendingWalk(t *testing.T, label string, u *cfg.Unit, steps int, pick func(step int, enabled []int) int) *pendingSeen {
	t.Helper()
	ms := lockstepMachines(t, label, u)
	chs := make([]*stepChooser, len(ms))
	for i, m := range ms {
		chs[i] = &stepChooser{}
		if out := m.Init(chs[i]); out != nil {
			t.Fatalf("%s: Init: %v", label, out)
		}
	}
	seen := &pendingSeen{}
	for step := 0; step < steps; step++ {
		checkPending(t, label, u, ms, seen)
		en := ms[0].AppendEnabled(nil)
		if len(en) == 0 {
			break
		}
		p := pick(step, en)
		for i, m := range ms {
			if _, out := m.Step(p, chs[i]); out != nil {
				return seen
			}
		}
	}
	checkPending(t, label, u, ms, seen)
	return seen
}

// TestPendingTable walks programs built to show the rows random
// schedules seldom produce: a process blocked on a full channel beside a
// terminated one, a VS_assert (no object), the daemons of a most general
// environment, and a table wider than one 64-bit mask word.
func TestPendingTable(t *testing.T) {
	first := func(_ int, en []int) int { return en[0] }
	t.Run("blocked-and-terminated", func(t *testing.T) {
		u, err := core.CompileSource(`
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
`)
		if err != nil {
			t.Fatal(err)
		}
		seen := pendingWalk(t, "blocked", u, 10, first)
		if !seen.blocked || !seen.terminated || !seen.assert {
			t.Fatalf("walk did not reach a blocked send, a terminated process and an assert: %+v", seen)
		}
	})
	t.Run("daemons", func(t *testing.T) {
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
		seen := pendingWalk(t, "daemons", u, 40, func(step int, en []int) int { return en[step%len(en)] })
		if !seen.daemon {
			t.Fatalf("composition has no daemon row: %+v", seen)
		}
	})
	t.Run("wide", func(t *testing.T) {
		var b strings.Builder
		b.WriteString("sem s = 1;\nproc w() {\n    wait(s);\n    signal(s);\n}\n")
		for i := 0; i < 70; i++ {
			b.WriteString("process w;\n")
		}
		u, err := core.CompileSource(b.String())
		if err != nil {
			t.Fatal(err)
		}
		seen := pendingWalk(t, "wide", u, 150, func(step int, en []int) int { return en[(step*7)%len(en)] })
		if seen.widest <= 64 || !seen.blocked || !seen.terminated {
			t.Fatalf("wide walk: %+v", seen)
		}
	})
}
