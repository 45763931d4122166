package explore

import "reclose/internal/interp"

// Backtracking by undoing.
//
// VeriSoft's search is stateless because it drives real processes that
// cannot be taken back: every path re-executes from the initial state.
// This engine's processes are interpreter data, and the compiled machine
// logs what its transitions overwrite (interp/trail.go). So every
// scheduling entry holds a mark — the machine's state at its decision
// point, before any of its options executed — taken when the entry is
// pushed at a fresh state, or when a replay passes it holding none that
// is alive (an entry rebuilt from a work unit or a checkpoint, every
// entry after the log was dropped). The next path undoes the machine to
// the deepest mark on the stack and enters the ordinary replay loop at
// that entry: usually the one whose cursor just advanced, so a path
// costs what the last one changed plus one re-executed transition. A
// toss entry holds no mark: its enclosing transition is re-executed from
// the scheduling entry below, with the chooser replaying the toss.
//
// Marks are an accelerator under the decision stack, never a part of it:
// the stack, work units and checkpoints hold decisions only, and a path
// that finds no live mark — the reference interpreter's are all dead —
// starts from the claimed unit's snapshot or the initial state and
// replays. A mark costs nothing to take or to abandon, so there is
// nothing to choose and nothing to evict; the trail's memory is the
// machine's to bound.

// takeMark marks the machine's current state. All live marks are on one
// trail — e.trail is one of them — so a mark on another means the machine
// dropped its log, and with it every mark taken before.
func (e *engine) takeMark() interp.Mark {
	if e.opt.testReplayOnly {
		return interp.Mark{}
	}
	mk := e.sys.Mark()
	if e.trail != (interp.Mark{}) && !mk.SameTrail(e.trail) {
		e.rep.TrailDrops++
	}
	e.trail = mk
	return mk
}

// markEntry hangs a mark for the machine's current state on en, the
// scheduling entry whose decision point it is, at scheduling depth depth.
func (e *engine) markEntry(en *entry, depth int) {
	en.mark, en.markDepth = e.takeMark(), depth
}

// restore starts a path from the deepest live mark on the stack: it
// undoes the machine to it, re-marks the dynamic-POR last accesses of
// the entries below (their transitions are not re-executed), and points
// the replay at the mark's entry. When no mark applies it reports false, the machine untouched,
// and abandons every mark on the stack: the caller overwrites the
// machine.
func (e *engine) restore() bool {
	for k := len(e.stack) - 1; k >= 0; k-- {
		en := e.stack[k]
		if !en.mark.SameTrail(e.trail) {
			continue
		}
		popped, ok := e.sys.Undo(en.mark)
		if !ok {
			break
		}
		e.rep.TrailRestores++
		e.rep.TrailUndone += int64(popped)
		e.baseIdx = len(e.base)
		e.replayIdx = k
		e.liveDepth = en.markDepth
		if e.opt.POR == PORDynamic {
			for i, below := range e.stack[:k] {
				e.dporMark(i, below)
			}
		}
		return true
	}
	e.trail = interp.Mark{}
	return false
}
