package explore

import (
	"fmt"
	"sort"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/interp"
)

// This file implements dynamic partial-order reduction (Flanagan &
// Godefroid, POPL 2005) on top of the stateless DFS core.
//
// Static POR (the default) pre-expands a persistent set at every
// state, computed from the static object footprints. Dynamic POR
// instead expands a single enabled transition and discovers the need
// for alternatives while executing: the engine tracks, per object index
// and side (interp.Pending's Obj and Slot), the stack index of the last
// transition that accessed it; at every new state, each row of the
// pending table whose *pending* operation targets an
// object last accessed by a *different* process makes the earlier
// decision point gain a backtrack point — that process if it was
// enabled there, otherwise every process enabled there. (Pending, not
// executed: a blocked wait is precisely the conflict that demands the
// earlier accessor yield.) Backtrack points are folded into the option list
// lazily, when its cursor exhausts, so the DFS machinery (childSleep,
// replay, residual units) sees them as ordinary late-materialized
// sibling options.
//
// Three rules make dynamic backtrack sets compose with the rest of the
// engine; DESIGN.md §14 states them with their soundness arguments:
//
//   - Publication seals. A decision point published into a work unit
//     is immutable to other workers, so a backtrack point can never
//     reach it. Therefore any entry that may spill (depth <
//     SpillDepth while a spill hook is installed) is expanded
//     statically up front and marked sealed: its option set is a
//     static persistent set, complete without dynamic insertions.
//     Dependency insertions into sealed entries are no-ops.
//
//   - Cache hits seal. A cache-pruned leaf cuts a subtree whose
//     execution would have inserted backtrack points into the current
//     path's ancestors (the classic stateful-DPOR unsoundness). At
//     the pruned leaf, every local unsealed entry is sealed to its
//     recorded static persistent candidates — a statically complete
//     set needs no insertions from the lost subtree.
//
//   - Checkpoints carry the stack. Per-entry residual units cannot
//     express an option set that is still growing, so in dynamic mode
//     the unexplored remainder of an engine travels as ONE
//     stack-continuation unit: a deep copy of the live DFS stack,
//     backtrack sets included. The claimer rebuilds the stack and
//     continues; insertions target the rebuilt (engine-local) entries.
type PORMode int

// Partial-order-reduction modes (Options.POR).
const (
	// PORStatic is the default: persistent sets from static object
	// footprints, exactly the engine's historical behavior.
	PORStatic PORMode = iota
	// PORDynamic enables Flanagan–Godefroid dynamic POR.
	PORDynamic
	// POROff disables persistent sets entirely (sleep sets still apply
	// unless NoSleep).
	POROff
)

// String names the POR mode.
func (m PORMode) String() string {
	switch m {
	case PORStatic:
		return "static"
	case PORDynamic:
		return "dynamic"
	case POROff:
		return "off"
	}
	return "unknown"
}

// ParsePOR parses a POR mode name ("static", "dynamic", "off").
func ParsePOR(s string) (PORMode, error) {
	switch s {
	case "", "static":
		return PORStatic, nil
	case "dynamic":
		return PORDynamic, nil
	case "off", "none":
		return POROff, nil
	}
	return PORStatic, fmt.Errorf("explore: unknown POR mode %q (want static, dynamic, or off)", s)
}

// MarshalText spells the mode as String does: its flag and JSON form.
func (m PORMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses the mode as ParsePOR does.
func (m *PORMode) UnmarshalText(b []byte) (err error) {
	*m, err = ParsePOR(string(b))
	return err
}

// objClass is an object's dynamic-POR conflict class: it selects the
// dependency matrix deciding which operation pairs on the object are
// dependent AND may be co-enabled — the Flanagan–Godefroid condition
// for a backtrack point. A pair that can never be co-enabled (a send
// and a recv on a capacity-1 channel: one needs the buffer empty, the
// other non-empty) or that commutes wherever co-enabled (two signals,
// two reads) never needs one.
type objClass uint8

const (
	// classChan1 is a capacity-1 channel: send/send and recv/recv
	// conflict; send/recv are never co-enabled.
	classChan1 objClass = iota
	// classChanN is a channel of capacity >= 2: every operation pair
	// conflicts (send/recv are co-enabled on a part-filled buffer).
	classChanN
	// classStub is an env-facing channel stub: stateless (always
	// enabled, sends discarded, recvs undefined), so every pair
	// commutes and nothing conflicts.
	classStub
	// classSem is a semaphore: wait/wait and wait/signal conflict;
	// signal/signal commutes.
	classSem
	// classShared is a shared variable: only read/read commutes.
	classShared
	// classOther is anything unrecognized: every pair conflicts.
	classOther
)

// objClassOf classifies one declared object.
func objClassOf(spec cfg.ObjectSpec) objClass {
	if spec.EnvFacing {
		return classStub
	}
	switch spec.Kind {
	case ast.ChanObject:
		if spec.Arg <= 1 {
			return classChan1
		}
		return classChanN
	case ast.SemObject:
		return classSem
	case ast.SharedObject:
		return classShared
	}
	return classOther
}

// Operations split into two slots per object — slot 0 produces or
// acquires (send, wait, vwrite), slot 1 consumes or releases (recv,
// signal, vread) — and the engine tracks the last access per slot, so
// the last *dependent* access is found even when a skippable access of
// the other slot came later (a pending send must point at the last
// send, not at a more recent recv the class says to ignore). The slot
// of a pending operation is interp.Pending.Slot.

// dporDepend[class][pendingSlot][lastSlot] reports whether a pending
// operation of pendingSlot conflicts with a past access of lastSlot on
// an object of class — dependent and possibly co-enabled.
var dporDepend = [6][2][2]bool{
	classChan1:  {{true, false}, {false, true}},
	classChanN:  {{true, true}, {true, true}},
	classStub:   {{false, false}, {false, false}},
	classSem:    {{true, true}, {true, false}},
	classShared: {{true, true}, {true, false}},
	classOther:  {{true, true}, {true, true}},
}

// dporBegin resets the per-path last-access vectors (two slots per
// object). The vectors are rebuilt as the path executes — by dporTrack
// for the transitions it steps, by dporMark for the entries a restore
// skips over — so only the slots touched by the previous path need
// clearing.
func (e *engine) dporBegin() {
	if e.opt.POR != PORDynamic {
		return
	}
	if len(e.dporLast) != 2*e.footprint.numObjs {
		e.dporLast = make([]int, 2*e.footprint.numObjs)
		for i := range e.dporLast {
			e.dporLast[i] = -1
		}
		e.dporTouched = e.dporTouched[:0]
		return
	}
	for _, s := range e.dporTouched {
		e.dporLast[s] = -1
	}
	e.dporTouched = e.dporTouched[:0]
}

// dporUpdate performs the Flanagan–Godefroid backtrack-set update at
// the current state: for EVERY running process — blocked ones
// included, which is what makes the algorithm complete (a blocked
// wait(x) is exactly the evidence that x's last accessor should have
// yielded earlier) — look up the last executed access to the object
// its pending operation targets, and insert a backtrack point at that
// decision point when the accessor was a different process.
//
// Called once per NEW state (the fresh-state branch of runPath), not
// during stack replay: replayed states have identical pending
// operations and an identical last-access vector, and their target
// entries persist across sibling paths, so every replay insertion
// would be a dedup no-op.
//
// A pending operation on an object the unit does not declare (Obj -1,
// like VS_assert) is skipped: it is never enabled, so the object is
// never accessed and there is no earlier decision to revisit.
func (e *engine) dporUpdate() {
	for p, pd := range e.pend {
		oi := int(pd.Obj)
		if oi < 0 {
			continue
		}
		dep := &dporDepend[e.footprint.class[oi]][pd.Slot]
		// The last dependent access: the newer of the two slots among
		// those the class declares conflicting with the pending slot.
		last := -1
		for ls := 0; ls < 2; ls++ {
			if dep[ls] && e.dporLast[2*oi+ls] > last {
				last = e.dporLast[2*oi+ls]
			}
		}
		if last >= 0 {
			en := e.stack[last]
			if !en.isToss && en.choice() != p {
				e.insertBacktrack(en, p)
			}
		}
	}
}

// dporTrack records that the transition process p chose at stack entry
// en (index idx) is about to execute its access, for later dporUpdate
// lookups. Objectless transitions (VS_assert) are independent of
// everything and tracked by nothing. Accesses inside the base prefix
// are not tracked: base decision points come from published work units
// and are sealed by the publication rule, so a conflict pointing there
// needs no insertion. pd is the process's row at the decision state;
// the slot marked is kept on the entry so dporMark can repeat the
// marking without it.
func (e *engine) dporTrack(idx int, pd interp.Pending, en *entry) {
	en.dporLo, en.dporHi = 0, 0
	if pd.Obj >= 0 {
		en.dporLo = 2*int(pd.Obj) + int(pd.Slot)
		en.dporHi = en.dporLo + 1
		e.dporMark(idx, en)
	}
}

// dporMark marks stack index idx as the last access of the slots en's
// chosen option occupies.
func (e *engine) dporMark(idx int, en *entry) {
	for s := en.dporLo; s < en.dporHi; s++ {
		if e.dporLast[s] < 0 {
			e.dporTouched = append(e.dporTouched, s)
		}
		e.dporLast[s] = idx
	}
}

// insertBacktrack adds process p to the backtrack set of decision
// point en: p itself when it was enabled there, otherwise every
// process enabled there (Flanagan–Godefroid). Sealed and
// statically-expanded entries are complete already and need nothing.
func (e *engine) insertBacktrack(en *entry, p int) {
	if en.sealed || !en.dynamic {
		return
	}
	for _, q := range en.enabled {
		if q == p {
			e.addBacktrack(en, p)
			return
		}
	}
	for _, q := range en.enabled {
		e.addBacktrack(en, q)
	}
}

// addBacktrack inserts one process into an entry's backtrack set,
// deduplicating against its options (already scheduled or explored)
// and pending backtracks, and honoring the sleep set: a sleeping
// process was fully explored in a sibling subtree and needs no
// re-exploration here.
func (e *engine) addBacktrack(en *entry, q int) {
	for _, x := range en.options {
		if x == q {
			return
		}
	}
	for _, x := range en.backtrack {
		if x == q {
			return
		}
	}
	if !e.opt.NoSleep && en.sleep.has(q) {
		e.rep.PorSleepBlocked++
		return
	}
	en.backtrack = append(en.backtrack, q)
	e.rep.PorBacktracks++
}

// fold materializes the entry's pending backtrack points as ordinary
// sibling options, in ascending process order for determinism. It
// reports whether the entry gained an unexplored option. Called when the
// entry's cursor exhausts its current options (advance) and when the
// entry is sealed.
func (en *entry) fold() bool {
	if len(en.backtrack) == 0 {
		return false
	}
	sort.Ints(en.backtrack)
	for _, q := range en.backtrack {
		en.options = append(en.options, q)
		en.objs = append(en.objs, objOf(en.enabled, en.enObjs, q))
	}
	en.backtrack = en.backtrack[:0]
	return en.cursor < len(en.options)
}

// objOf returns the object process q's pending operation targets at a
// decision point, from its recorded enabled/enObjs pair.
func objOf(enabled []int, enObjs []int32, q int) int32 {
	for i, p := range enabled {
		if p == q {
			return enObjs[i]
		}
	}
	return -1
}

// sealEntry makes a dynamically-expanded entry statically complete:
// its pending backtracks fold in, then its recorded static persistent
// candidates (all enabled processes when none were recorded), minus
// sleepers and duplicates. After sealing, dependency insertions are
// no-ops — the option set is complete without them.
func (e *engine) sealEntry(en *entry) {
	if !en.dynamic || en.sealed {
		return
	}
	en.sealed = true
	en.fold()
	cand := en.statics
	if len(cand) == 0 {
		cand = en.enabled
	}
outer:
	for _, q := range cand {
		for _, x := range en.options {
			if x == q {
				continue outer
			}
		}
		if !e.opt.NoSleep && en.sleep.has(q) {
			continue
		}
		en.options = append(en.options, q)
		en.objs = append(en.objs, objOf(en.enabled, en.enObjs, q))
	}
}

// sealStack seals every unsealed scheduling entry on the stack (cache
// hits, untrackable objects).
func (e *engine) sealStack() {
	for _, en := range e.stack {
		if !en.isToss {
			e.sealEntry(en)
		}
	}
}

// scheduleDynamic expands a fresh state in dynamic-POR mode: record
// the full enabled set (with pending-operation objects) for later
// backtrack insertions, pick the first non-sleeping enabled process as
// the only initial option, and — when a state cache may prune a
// descendant — record the static persistent candidates the cache-hit
// seal rule falls back on.
func (e *engine) scheduleDynamic(en *entry, enabled []int) {
	en.dynamic = true
	sleep := e.pendingSleep
	si := 0
	for _, p := range enabled {
		obj := e.pend[p].Obj
		en.enabled = append(en.enabled, p)
		en.enObjs = append(en.enObjs, obj)
		asleep := false
		if !e.opt.NoSleep {
			for si < len(sleep) && sleep[si].proc < p {
				si++
			}
			asleep = si < len(sleep) && sleep[si].proc == p
		}
		if asleep {
			e.rep.PorSleepBlocked++
			continue
		}
		if len(en.options) == 0 {
			en.options = append(en.options, p)
			en.objs = append(en.objs, obj)
		}
	}
	if len(en.options) > 0 && e.cache != nil {
		en.statics = append(en.statics[:0], e.persistentSet(en.enabled)...)
	}
}

// copyFrom makes en a deep copy of src's decision point as a
// stack-continuation unit carries it — options, cursor, sleep context,
// and the dynamic-POR record with its still-growing backtrack set — so
// neither side's later folds or spills reach the other. It copies in
// both directions: a residual's entries into the unit, and a claimed
// unit's into the pooled entries the claiming engine rebuilds its stack
// from. The pending table, the trail mark and the child sleep set are
// the live search's and stay behind.
func (en *entry) copyFrom(src *entry) {
	en.isToss = src.isToss
	en.options = append(en.options[:0], src.options...)
	en.objs = append(en.objs[:0], src.objs...)
	en.cursor = src.cursor
	en.sleep = src.sleep.clone()
	en.enabled = append(en.enabled[:0], src.enabled...)
	en.enObjs = append(en.enObjs[:0], src.enObjs...)
	en.backtrack = append(en.backtrack[:0], src.backtrack...)
	en.statics = append(en.statics[:0], src.statics...)
	en.sealed = src.sealed
	en.dynamic = src.dynamic
}

// stackResidual converts the engine's unexplored remainder into one
// stack-continuation unit (dynamic mode). For a stop at a path
// boundary the copied frames are pre-advanced past the completed leaf
// — simulating the backtrack the live engine would perform — so the
// claimer recounts nothing; for a mid-path stop the frames replay to
// the cut tip as-is. Returns nil when the subtree is exhausted.
func (e *engine) stackResidual() *workUnit {
	stack := make([]*entry, len(e.stack))
	for i, en := range e.stack {
		stack[i] = new(entry)
		stack[i].copyFrom(en)
	}
	if !e.midPath {
		// The live engine's next backtrack, on the copies.
		for len(stack) > 0 && !stack[len(stack)-1].advance() {
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) == 0 {
		if !e.midPath {
			return nil
		}
		// Cut at a fresh state with an empty stack: a plain
		// continuation unit expresses it exactly.
		return &workUnit{
			prefix: append([]Decision(nil), e.base...),
			sleep:  e.pendingSleep.clone(),
			cont:   true,
		}
	}
	return &workUnit{
		prefix: append([]Decision(nil), e.base...),
		sleep:  e.baseSleep,
		stack:  stack,
	}
}
