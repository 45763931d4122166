package interp

import (
	"fmt"

	"reclose/internal/cfg"
)

// EngineKind selects the interpreter: the compiled machine or the
// reference. The zero value is the compiled one — the default
// everywhere an engine is not named explicitly (explore.Options, the
// -engine flag).
type EngineKind int

// The two interpreters. They implement identical observable semantics
// — events, outcomes, fingerprints, state hashes — which the machine
// judge (judge_test.go) enforces.
const (
	// EngineBytecode is System: flat per-unit bytecode (bytecode.go,
	// bcexec.go) with incremental state hashing.
	EngineBytecode EngineKind = iota
	// EngineRef is RefSystem, the string-map reference interpreter
	// (refsys.go): the specification, kept as the oracle.
	EngineRef
)

// String returns the engine's flag spelling.
func (k EngineKind) String() string {
	switch k {
	case EngineBytecode:
		return "bytecode"
	case EngineRef:
		return "ref"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// ParseEngine parses a -engine flag value.
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "", "bytecode":
		return EngineBytecode, nil
	case "ref":
		return EngineRef, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want bytecode or ref)", s)
}

// MarshalText spells the engine as String does: its flag and JSON form.
func (k EngineKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the engine as ParseEngine does.
func (k *EngineKind) UnmarshalText(b []byte) (err error) {
	*k, err = ParseEngine(string(b))
	return err
}

// Machine is the executable-system interface the explorer drives: the
// transition semantics, the state identity operations (fingerprint and
// hash), the write trail backtracking runs on (Mark, Undo) and the
// deep-copy fork for a state that has to outlive the machine that
// reached it. System and RefSystem implement it.
//
// Per state the search calls Step, PatchPending, Mark and the identity
// methods; per path Undo, or Init/Reset and AppendPending at the path's
// root. A state's pending table answers
// every question about it — which processes are enabled, whether the
// state is a deadlock or a final one, where each process is stopped,
// whether its operation counts as progress. The per-process methods
// render incident messages (NumProcs, ProcStatus, ProcPendingOp) and
// feed the benchmark's probe (AppendEnabled).
type Machine interface {
	// Transition semantics.
	Init(ch Chooser) *Outcome
	Step(i int, ch Chooser) (Event, *Outcome)
	Reset()
	AppendPending(dst []Pending) []Pending // the state's pending table (pending.go)
	// PatchPending turns the table of the state before Step(i) into the
	// current state's.
	PatchPending(tab []Pending, i int) []Pending

	// Observation only.
	NumProcs() int
	AppendEnabled(dst []int) []int
	ProcStatus(i int) Status
	ProcPendingOp(i int) (op, object string, ok bool)

	// Backtracking (trail.go). Mark names the current state; Undo takes
	// the machine back to a marked state and reports how many log entries
	// it undid, or false for a dead mark — the only kind the reference
	// gives out. The caller then reaches the state by replay.
	Mark() Mark
	Undo(m Mark) (popped int, ok bool)

	// State identity and snapshotting. AppendKey is what a search stores
	// of a state: see hash.go.
	AppendFingerprint(dst []byte) []byte
	AppendKey(dst []byte, tab SegmentTable) (key []byte, rendered int)
	StateHash() uint64
	ForkMachine() Machine

	// Instrumentation.
	SetMetrics(m Metrics)
}

// NewMachine builds a fresh machine of the requested engine over a
// closed unit. For many machines over one unit, Resolve once and use
// Resolution.NewMachine (the ref engine needs no resolution but gets
// the same validation).
func NewMachine(u *cfg.Unit, k EngineKind) (Machine, error) {
	if k == EngineRef {
		return NewRefSystem(u)
	}
	r, err := Resolve(u)
	if err != nil {
		return nil, err
	}
	return r.NewMachine(k)
}

// NewMachine instantiates a machine of the requested engine over the
// shared compiled code.
func (r *Resolution) NewMachine(k EngineKind) (Machine, error) {
	switch k {
	case EngineBytecode:
		return r.NewSystem(), nil
	case EngineRef:
		return NewRefSystem(r.unit)
	}
	return nil, fmt.Errorf("unknown engine %v", k)
}

// Held for benchmark/probe.go: its per-layer row
// `interp.step_ns.slots` timed the closure tier this package no longer
// has and now reads the one compiled machine under a second name. Both
// forwarders go when that row does (ROADMAP, "For the harness owner",
// item i).
const EngineSlots = EngineBytecode

func (r *Resolution) NewBytecodeSystem() *System { return r.NewSystem() }

// BytecodeCompileNanos returns the wall time spent compiling the
// resolution's bytecode module, or 0 if it has not been compiled.
func (r *Resolution) BytecodeCompileNanos() int64 { return r.bcCompileNanos }

// System's Machine adapters.

// NumProcs returns the number of process instances.
func (s *System) NumProcs() int { return len(s.Procs) }

// ProcStatus returns process i's lifecycle state.
func (s *System) ProcStatus(i int) Status { return s.Procs[i].Status() }

// ProcPendingOp returns process i's pending visible operation.
func (s *System) ProcPendingOp(i int) (string, string, bool) { return s.Procs[i].PendingOp() }

// ForkMachine returns Fork through the Machine interface.
func (s *System) ForkMachine() Machine { return s.Fork() }

// RefSystem's Machine adapters.

// NumProcs returns the number of process instances.
func (s *RefSystem) NumProcs() int { return len(s.Procs) }

// ProcStatus returns process i's lifecycle state.
func (s *RefSystem) ProcStatus(i int) Status { return s.Procs[i].Status() }

// ProcPendingOp returns process i's pending visible operation.
func (s *RefSystem) ProcPendingOp(i int) (string, string, bool) { return s.Procs[i].PendingOp() }

// AppendEnabled appends the indices of all enabled processes to dst in
// ascending order.
func (s *RefSystem) AppendEnabled(dst []int) []int {
	for i := range s.Procs {
		if s.Enabled(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// SetMetrics attaches the instruments. The reference interpreter is an
// oracle, not a measured engine: of them only HashFull applies — every
// StateHash is a full walk.
func (s *RefSystem) SetMetrics(m Metrics) { s.met = m }

// StateHash recomputes the canonical state hash by a full walk; it
// must equal System.StateHash for any state with an equal fingerprint,
// so cache routing — and with it eviction behavior and merged reports
// — is identical across engines.
func (s *RefSystem) StateHash() uint64 {
	s.met.HashFull.Inc()
	h := uint64(hashSeed)
	buf := make([]byte, 0, 64)
	for _, name := range s.num.Objects {
		buf = s.objects[name].appendFingerprint(buf[:0])
		h = Mix64(h, fnvBytes(buf))
	}
	var acc uint64
	for _, p := range s.Procs {
		h = Mix64(h, uint64(p.status))
		if p.status != Running {
			continue
		}
		for fi, f := range p.stack {
			h = Mix64(h, fnvString(f.graph.g.ProcName))
			if fi == len(p.stack)-1 {
				h = Mix64(h, uint64(p.cur.ID)*2+1)
			} else {
				h = Mix64(h, uint64(p.stack[fi+1].callNode)*2)
			}
			st := f.graph.slots
			for i, name := range st.Names {
				v := IntVal(0)
				if c, ok := f.vars[name]; ok {
					v = c.V
				}
				acc ^= Mix64(cellKey(p.Index, fi, i), valHash(v))
			}
		}
	}
	return Mix64(h, acc)
}

// AppendKey appends the fingerprint: the reference's key is the text.
func (s *RefSystem) AppendKey(dst []byte, _ SegmentTable) ([]byte, int) {
	return fingerprintKey(s, dst)
}

// fingerprintKey is the key of a machine that keeps no segments: its
// fingerprint, at its own length.
func fingerprintKey(m Machine, dst []byte) ([]byte, int) {
	n := len(dst)
	dst = m.AppendFingerprint(dst)
	return dst, len(dst) - n
}

// Mark returns the dead mark and Undo reports false: the reference
// keeps no trail, so its callers always replay.
func (s *RefSystem) Mark() Mark { return Mark{} }

func (s *RefSystem) Undo(Mark) (int, bool) { return 0, false }

// forker tracks cell identity across one reference-system fork so every
// pointer in the clone lands on the clone's corresponding cell. (The
// compiled machine copies by position instead; fork.go.)
type forker struct {
	cellMap map[*Cell]*Cell
}

// value deep-copies v, remapping pointer targets into the clone.
func (fk *forker) value(v Value) Value {
	switch v.Kind {
	case KPtr:
		return PtrVal(Pointer{Cell: fk.cell(v.Ptr().Cell), Elem: int(v.I)})
	case KArray:
		arr := make([]Value, v.I)
		for i, e := range v.Arr() {
			arr[i] = fk.value(e)
		}
		return arrayOf(arr)
	}
	return v
}

// cell maps an old cell to its clone. A cell outside the live frames —
// a stale pointer target kept reachable only through the pointer — is
// cloned on demand; the clone is registered before its value is copied
// so pointer cycles terminate.
func (fk *forker) cell(c *Cell) *Cell {
	if c == nil {
		return nil
	}
	if nc, ok := fk.cellMap[c]; ok {
		return nc
	}
	nc := &Cell{}
	fk.cellMap[c] = nc
	nc.V = fk.value(c.V)
	return nc
}

// ForkMachine returns an independent deep copy of the reference
// system, with pointers remapped onto the clone's cells: the same
// observable result as System.Fork, through an identity map over the
// name-keyed cells.
func (s *RefSystem) ForkMachine() Machine {
	fk := &forker{cellMap: make(map[*Cell]*Cell)}
	ns := &RefSystem{
		Unit:         s.Unit,
		num:          s.num,
		graphs:       s.graphs,
		MaxInvisible: s.MaxInvisible,
		allProgress:  s.allProgress,
		met:          s.met,
	}
	type framePair struct{ old, new *refFrame }
	var pairs []framePair
	ns.Procs = make([]*RefProc, len(s.Procs))
	for i, p := range s.Procs {
		np := &RefProc{Index: p.Index, TopProc: p.TopProc, cur: p.cur, status: p.status}
		np.stack = make([]*refFrame, len(p.stack))
		for fi, f := range p.stack {
			nf := &refFrame{graph: f.graph, vars: make(map[string]*Cell, len(f.vars)), callNode: f.callNode}
			for name, c := range f.vars {
				nc := &Cell{}
				fk.cellMap[c] = nc
				nf.vars[name] = nc
			}
			np.stack[fi] = nf
			pairs = append(pairs, framePair{old: f, new: nf})
		}
		ns.Procs[i] = np
	}
	for _, pr := range pairs {
		for name, c := range pr.old.vars {
			pr.new.vars[name].V = fk.value(c.V)
		}
	}
	ns.objects = make(map[string]*object, len(s.objects))
	for name, o := range s.objects {
		c := o.clone()
		for i := range c.q {
			c.q[i] = fk.value(c.q[i])
		}
		c.v = fk.value(c.v)
		ns.objects[name] = c
	}
	return ns
}
