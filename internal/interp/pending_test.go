package interp_test

import (
	"slices"

	"reclose/internal/interp"
)

// This file holds the pending table (pending.go) to its specification:
// the machine judge (judge_test.go) calls checkPending at every state of
// every schedule and checkPatch after every Step.

// pendingSeen records which kinds of row a run of checkPending came
// across, so a corpus run cannot pass vacuously.
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

// checkPending compares the pending tables of the machines ms (the
// judge's, the reference among them): every machine's table must equal
// the first one's row for row, and the reference's must say exactly what
// the reference answers when asked the old way, one process and one
// string at a time — the compiled machine answers those questions
// through its table only. Each machine's status and pending operation
// must agree with its rows.
func (j *judge) checkPending(label string, ms []interp.Machine) {
	t, u, num, ref, seen := j.t, j.u, j.num, j.ms[jRef].(*interp.RefSystem), &j.st.seen
	var first []interp.Pending
	for mi, m := range ms {
		tab := m.AppendPending(nil)
		if len(tab) != m.NumProcs() {
			t.Fatalf("%s: machine %d: table has %d rows for %d processes", label, mi, len(tab), m.NumProcs())
		}
		if mi == 0 {
			first = tab
		} else if !slices.Equal(tab, first) {
			t.Fatalf("%s: machine %d's table differs from machine 0's\n got %v\nwant %v", label, mi, tab, first)
		}
		for p, pd := range tab {
			running := m.ProcStatus(p) == interp.Running
			_, obj, _ := m.ProcPendingOp(p) // "" for none
			if running != (pd.Flags&interp.PendRunning != 0) || num.Object(obj) != pd.Obj {
				t.Fatalf("%s: machine %d: row %d is %+v; the process says running=%t, object %q", label, mi, p, pd, running, obj)
			}
		}
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
		seen.blocked = seen.blocked || pd.Obj >= 0 && pd.Flags&interp.PendEnabled == 0
		seen.terminated = seen.terminated || pd.Flags&interp.PendRunning == 0
		seen.daemon = seen.daemon || pd.Flags&interp.PendDaemon != 0
		seen.assert = seen.assert || pd.Obj < 0 && pd.Site >= 0
	}
	// What the search derives from the table (explore.scanEnabled) is
	// what the reference's own predicates say.
	if term, dead := verdict(ms[0]); term != ref.AllTerminated() || dead != ref.Deadlocked() {
		t.Fatalf("%s: table says terminated=%t deadlocked=%t, the reference AllTerminated=%t Deadlocked=%t",
			label, term, dead, ref.AllTerminated(), ref.Deadlocked())
	}
	seen.widest = max(seen.widest, len(first))
}

// checkPatch holds each machine's PatchPending of parent, the table of
// the state before Step(i), to the machine's own table and to the
// reference's, both read in full.
func (j *judge) checkPatch(label string, ms []interp.Machine, parent []interp.Pending, i int) {
	want := j.ms[jRef].AppendPending(nil)
	for mi, m := range ms {
		got := m.PatchPending(append([]interp.Pending(nil), parent...), i)
		if own := m.AppendPending(nil); !slices.Equal(got, own) || !slices.Equal(got, want) {
			j.t.Fatalf("%s: machine %d: PatchPending after Step(%d) is\n %v\nits own table\n %v\nthe reference's\n %v",
				label, mi, i, got, own, want)
		}
	}
}
