package explore

import "reclose/internal/interp"

// Restore-based backtracking.
//
// VeriSoft's search is stateless because it drives real processes that
// cannot be saved: every path re-executes from the initial state. This
// engine's processes are interpreter data, so it saves them. When a
// scheduling entry the search expects to come back to (saveSnapshot's
// rule, part of it learned as the search runs) is pushed at a fresh
// state, the machine's state at that decision point — before any of the
// entry's options executed — is copied into a pooled snapshot machine
// hung on the entry. The next path overwrites the engine's machine from
// the deepest snapshot on the stack and enters the ordinary replay loop
// at that entry: usually the entry whose cursor just advanced, so the
// path costs one re-executed transition instead of its whole prefix.
//
// Snapshots are an accelerator under the decision stack, never a part of
// it: the stack, work units and checkpoints still hold decisions only,
// and any entry without a snapshot — a toss entry (its enclosing
// transition is re-executed from the scheduling entry below, with the
// chooser replaying the toss), an entry whose snapshot was given up, an
// entry rebuilt from a work unit, every entry of the reference
// interpreter (whose CopyFrom reports false) — is reached by replaying
// from the nearest snapshot below it, or from the initial state when
// there is none, exactly as every entry was before. Soundness never
// depends on a snapshot existing; Report.Snapshots* count what the
// accelerator saved, was used for, and wasted.
//
// The pool is bounded by maxSnapshots machines per engine: when they
// are all in use the shallowest holder gives its snapshot up to the new
// entry. A depth-first search returns to its deepest entries first and
// most often, so the deepest maxSnapshots multi-option entries are the
// ones worth covering, and a search of any depth holds a fixed number
// of machine copies.

// maxSnapshots bounds the snapshot machines one engine creates. A
// machine of the largest bundled workload (5ess-large) is ~30 KiB, so
// the pool tops out at a few MiB; depths beyond it fall back to replay
// from the deepest covered entry.
const maxSnapshots = 128

// snapGrowWaste: the snapshots a site may waste on entries that never grow.
const snapGrowWaste = 8

// saveSnapshot hangs a copy of the machine's current state on en, the
// scheduling entry just pushed at a fresh state at scheduling depth
// depth. Entries the search will not return to are skipped: a single
// option, a transition not known to toss, and no prospect of growing. A
// dynamic entry with unscheduled enabled processes grows when a
// backtrack point folds in; whether one will is learned per site (the
// first option's), as tossSites learns tossing: a site where an entry
// ever grew is always saved at, any other until it has wasted
// snapGrowWaste snapshots. Growing without one costs a replay.
func (e *engine) saveSnapshot(en *entry, depth int) {
	tosses := en.site >= 0 && e.tossSites.get(en.site)
	growOnly := len(en.options) < 2 && !tosses // only growing would bring the search back
	if growOnly {
		if canGrow := en.dynamic && len(en.enabled) > 1; !canGrow || en.site >= 0 && e.growWaste[en.site] >= snapGrowWaste {
			return
		}
	}
	if e.opt.testReplayOnly {
		return
	}
	m := e.snapMachine()
	if m == nil {
		return
	}
	if !m.CopyFrom(e.sys) {
		// The machine (the reference), or this particular state, cannot
		// be copied in place: the entry replays.
		e.snapFree = append(e.snapFree, m)
		return
	}
	en.snap, en.snapTrace, en.snapDepth = m, len(e.trace), depth
	en.snapUsed, en.snapGrow = false, growOnly
	e.rep.SnapshotsSaved++
	if idx := len(e.stack) - 1; idx < e.snapLow {
		e.snapLow = idx
	}
}

// snapMachine returns a machine to snapshot into: an idle one, a new
// one while the pool is below its bound, and otherwise the one held by
// the shallowest entry on the stack, which falls back to replay.
func (e *engine) snapMachine() interp.Machine {
	if len(e.snapFree) == 0 && e.snapMade < maxSnapshots {
		e.snapMade++
		return e.sys.ForkMachine()
	}
	for i := e.snapLow; len(e.snapFree) == 0 && i < len(e.stack); i++ {
		e.dropSnapshot(e.stack[i])
		e.snapLow = i + 1
	}
	k := len(e.snapFree)
	if k == 0 {
		return nil
	}
	m := e.snapFree[k-1]
	e.snapFree = e.snapFree[:k-1]
	return m
}

// noteTossSite records that the transition in flight executes a
// VS_toss the stack has no entry for yet: the site of the scheduling
// entry it belongs to (the deepest one; toss entries of one transition
// sit directly above it) goes into tossSites. A toss during Init or the
// base prefix has no such entry and nothing to learn.
func (e *engine) noteTossSite() {
	for i := len(e.stack) - 1; i >= 0; i-- {
		if en := e.stack[i]; !en.isToss {
			if en.site >= 0 {
				e.tossSites.set(en.site)
			}
			return
		}
	}
}

// dropSnapshot returns en's snapshot machine, if any, to the pool.
func (e *engine) dropSnapshot(en *entry) {
	if en.snap == nil {
		return
	}
	if !en.snapUsed {
		e.rep.SnapshotsUnused++
		if w := e.growWaste; en.snapGrow && en.site >= 0 && w[en.site] >= 0 && w[en.site] < snapGrowWaste {
			w[en.site]++
		}
	}
	e.snapFree = append(e.snapFree, en.snap)
	en.snap = nil
}

// restore starts a path from the deepest snapshot on the stack: it
// overwrites the machine, truncates the trace to the snapshot's length,
// re-marks the dynamic-POR last accesses of the entries below (their
// transitions are not re-executed), and points the replay at the
// snapshot's entry. It reports false — with the machine possibly
// unspecified, so the caller must overwrite it another way — when no
// snapshot applies.
func (e *engine) restore() bool {
	if e.snapMade == len(e.snapFree) {
		return false // no entry holds a snapshot
	}
	k := len(e.stack) - 1
	for k >= 0 && e.stack[k].snap == nil {
		k--
	}
	if k < 0 || !e.sys.CopyFrom(e.stack[k].snap) {
		return false
	}
	en := e.stack[k]
	en.snapUsed = true
	e.rep.SnapshotsRestored++
	e.baseIdx = len(e.base)
	e.trace = e.trace[:en.snapTrace]
	e.replayIdx = k
	e.liveDepth = en.snapDepth
	if e.opt.POR == PORDynamic {
		for i, below := range e.stack[:k] {
			e.dporMark(i, below)
		}
	}
	return true
}
