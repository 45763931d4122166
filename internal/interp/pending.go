package interp

import (
	"slices"
	"sort"

	"reclose/internal/cfg"
)

// Pending is one process's row of a state's pending table. A global
// state is every process stopped at its next visible operation (§2 of
// the paper), so the table is all a search asks of a state before it
// picks a transition. All of a row but the enabled bit is a function of
// the node the process is stopped at (the compiled machine computes it
// once, in Resolve), and it holds no pointers.
type Pending struct {
	// Obj is the targeted object's index in Numbering.Objects; -1 for
	// VS_assert, for no pending operation, and for an object the unit
	// does not declare (such an operation is never enabled).
	Obj int32
	// Site is the node's index in the coverage bitmap (Numbering), or -1
	// when the process is at no visible operation.
	Site int32
	// Slot is the side of its object the operation works: 0 produces or
	// acquires (send, wait, vwrite), 1 consumes or releases (recv, signal,
	// vread), -1 without an object.
	Slot  int8
	Flags uint8 // Pend bits
}

// The bits of Pending.Flags.
const (
	PendRunning  uint8 = 1 << iota // the process has not terminated
	PendEnabled                    // its operation can execute without blocking
	PendDaemon                     // cfg.Unit.Daemons names the process
	PendProgress                   // its operation counts as progress (liveness)
)

// Numbering is the one dense numbering of a unit's declared objects and
// CFG nodes, which the pending table, the explorer's footprint masks and
// coverage bitmap, and the names in a checkpoint all go through.
type Numbering struct {
	Objects []string // declared object names, ascending
	// SiteBase maps each procedure of Unit.Order to the coverage index of
	// its node 0 (a node's site is that plus its ID), SiteBits wide in all.
	SiteBase map[string]int
	SiteBits int
}

// NumberUnit numbers u's objects and sites.
func NumberUnit(u *cfg.Unit) *Numbering {
	n := &Numbering{SiteBase: make(map[string]int, len(u.Order))}
	for _, sp := range u.Objects {
		n.Objects = append(n.Objects, sp.Name)
	}
	sort.Strings(n.Objects)
	for _, name := range u.Order {
		n.SiteBase[name] = n.SiteBits
		n.SiteBits += len(u.Procs[name].Nodes)
	}
	return n
}

// Object returns the index of the declared object name, or -1.
func (n *Numbering) Object(name string) int32 {
	if i := sort.SearchStrings(n.Objects, name); i < len(n.Objects) && n.Objects[i] == name {
		return int32(i)
	}
	return -1
}

// site returns the coverage index of a node, -1 outside Unit.Order.
func (n *Numbering) site(proc string, id int) int32 {
	if base, ok := n.SiteBase[proc]; ok {
		return int32(base + id)
	}
	return -1
}

// idle is the row of a process with no pending visible operation.
var idle = Pending{Obj: -1, Site: -1, Slot: -1}

// AppendPending appends the current state's pending table to dst, one
// row per process; reusing dst keeps the walk allocation-free.
func (s *System) AppendPending(dst []Pending) []Pending {
	dst = slices.Grow(dst, len(s.Procs))
	for _, p := range s.Procs {
		dst = append(dst, s.row(p))
	}
	return dst
}

// PatchPending turns tab, the table of the state before Step(i), into
// the current state's, in place. A transition moves control only in
// process i and changes objects only through i's one visible operation,
// so the rows that can differ are i's and those of the processes pending
// on the object that operation touched.
func (s *System) PatchPending(tab []Pending, i int) []Pending {
	obj := tab[i].Obj
	for q := range tab {
		if q == i || obj >= 0 && tab[q].Obj == obj {
			tab[q] = s.row(s.Procs[q])
		}
	}
	return tab
}

// row is p's row of the pending table.
func (s *System) row(p *Proc) Pending {
	pd := idle
	if p.vis != nil {
		pd = p.vis.pend
		if s.canRun(p.vis) {
			pd.Flags |= PendEnabled
		}
	} else if p.status == Running {
		pd.Flags = PendRunning
	}
	pd.Flags |= p.own
	return pd
}

// AppendPending is the reference's pending table, put together from the
// questions it answers one process and one string at a time: the oracle
// the compiled machine's table is held to shares only the numbering.
func (s *RefSystem) AppendPending(dst []Pending) []Pending {
	for i, p := range s.Procs {
		pd := idle
		if p.Status() == Running {
			pd.Flags = PendRunning
		}
		if op, obj, ok := p.PendingOp(); ok {
			proc, node := p.At()
			pd.Obj, pd.Site = s.num.Object(obj), s.num.site(proc, node)
			switch op {
			case "send", "wait", "vwrite":
				pd.Slot = 0
			case "recv", "signal", "vread":
				pd.Slot = 1
			}
			if s.Enabled(i) {
				pd.Flags |= PendEnabled
			}
			if s.ProcProgress(i) {
				pd.Flags |= PendProgress
			}
		}
		if s.Unit.Daemons[i] {
			pd.Flags |= PendDaemon
		}
		dst = append(dst, pd)
	}
	return dst
}

// PatchPending rebuilds the table in full: the oracle the compiled
// machine's patch is held to does not share the patch's argument.
func (s *RefSystem) PatchPending(tab []Pending, _ int) []Pending {
	return s.AppendPending(tab[:0])
}
