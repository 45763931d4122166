package interp

import (
	"slices"
	"unsafe"
)

// This file is the compiled machine's state copy: Fork, a second System
// over the same compiled code holding a copy of the receiver's whole
// mutable state.
//
// The copy is positional. Two Systems over one Resolution have the same
// processes and objects in the same order, and after the shape pass the
// same frames at the same stack depths, so the cell at (process, frame,
// slot) of the source corresponds to the cell at the same coordinates
// of the copy. A pointer value is remapped by locating its target's
// coordinates in the source — an address-range test against each live
// frame's cell array — and taking the copy's cell there: no identity
// map over every cell. Only a target outside every live frame (a stale
// pointer into a popped frame, kept reachable through the pointer
// alone) has no position; such cells are cloned on demand through a
// small identity map.

// Fork returns an independent deep copy of the system's current state:
// communication objects, process stacks, stores, control points and
// incremental-hash bookkeeping. The receiver is only read, so any number
// of machines may fork one source concurrently; mutations of either
// system never affect the other, and both render byte-identical
// fingerprints and state hashes for the state at the moment of the fork.
// No mark taken on the receiver is alive on the fork.
//
// The explorer forks when a state has to outlive the engine that
// reached it — a snapshot-spill work unit, and the machine a worker
// starts a claimed one on — and backtracks by undoing everywhere else.
func (s *System) Fork() *System { return s.fork(s.tal) }

// fork is Fork counting into t, which the fork then counts into.
func (s *System) fork(t *Tally) *System {
	t.Forks++
	ns := &System{
		Unit:         s.Unit,
		Procs:        make([]*Proc, len(s.Procs)),
		res:          s.res,
		objs:         make([]*object, len(s.objs)),
		bc:           s.bc,
		regs:         make([]Value, len(s.regs)),
		hashOn:       s.hashOn,
		acc:          s.acc,
		objHash:      slices.Clone(s.objHash),
		objSeg:       make([][]byte, len(s.objSeg)),
		objID:        slices.Clone(s.objID),
		tab:          s.tab,
		MaxInvisible: s.MaxInvisible,
		tal:          t,
	}
	ns.dropTrail() // a log generation of its own
	cp := &copier{dst: ns, src: s}

	// Shape pass: a pointer is remapped by position, so every frame of the
	// fork exists before any value is copied. Control points, the pending
	// operation and the key segment go with their process.
	for i, sp := range s.Procs {
		np := new(Proc)
		*np = *sp
		np.seg = slices.Clone(sp.seg)
		np.stack = make([]*frame, len(sp.stack))
		for fi, sf := range sp.stack {
			nf := new(frame)
			*nf = *sf
			nf.cells = make([]Cell, len(sf.cells))
			np.stack[fi] = nf
		}
		ns.Procs[i] = np
	}

	// Value pass. The hash bookkeeping is position-based, so it copies
	// verbatim with the cells.
	for i, sp := range s.Procs {
		for fi, sf := range sp.stack {
			cp.cells(ns.Procs[i].stack[fi].cells, sf.cells)
		}
	}
	for i, so := range s.objs {
		o := so.clone()
		for j := range o.q {
			o.q[j] = cp.value(o.q[j])
		}
		o.v = cp.value(o.v)
		ns.objs[i] = o
		ns.objSeg[i] = slices.Clone(s.objSeg[i])
	}
	return ns
}

// copier is the scratch of one Fork.
type copier struct {
	dst, src *System
	// stale maps pointer targets outside every live frame to their
	// clones (made on first use).
	stale map[*Cell]*Cell
}

// locate returns the (frame, slot) position of c in p's live frames
// (an address-range test per frame), or (-1, -1) when it is in none.
func (p *Proc) locate(c *Cell) (fi, slot int) {
	addr := uintptr(unsafe.Pointer(c))
	for fi, f := range p.stack {
		if len(f.cells) == 0 {
			continue
		}
		base := uintptr(unsafe.Pointer(&f.cells[0]))
		if addr >= base && addr < base+uintptr(len(f.cells))*unsafe.Sizeof(Cell{}) {
			return fi, int((addr - base) / unsafe.Sizeof(Cell{}))
		}
	}
	return -1, -1
}

// cells copies one frame's cell array: a block copy, then a deep copy
// of every pointer and array in it.
func (cp *copier) cells(dst, src []Cell) {
	copy(dst, src)
	for i := range dst {
		if v := &dst[i].V; v.Kind >= KPtr {
			*v = cp.value(*v)
		}
	}
}

// value returns a deep copy of v with pointer targets remapped into the
// fork.
func (cp *copier) value(v Value) Value {
	switch v.Kind {
	case KPtr:
		return PtrVal(Pointer{Cell: cp.cell(v.Ptr().Cell), Elem: int(v.I)})
	case KArray:
		arr := make([]Value, v.I)
		for i, e := range v.Arr() {
			arr[i] = cp.value(e)
		}
		return arrayOf(arr)
	}
	return v
}

// cell maps a source cell to the fork's cell at the same (process,
// frame, slot) position. A cell outside the live frames is cloned on
// demand — registered before its value is copied, so pointer cycles
// terminate.
func (cp *copier) cell(c *Cell) *Cell {
	if c == nil {
		return nil
	}
	for pi, p := range cp.src.Procs {
		if fi, i := p.locate(c); fi >= 0 {
			return &cp.dst.Procs[pi].stack[fi].cells[i]
		}
	}
	if nc, ok := cp.stale[c]; ok {
		return nc
	}
	if cp.stale == nil {
		cp.stale = make(map[*Cell]*Cell)
	}
	nc := &Cell{}
	cp.stale[c] = nc
	nc.V = cp.value(c.V)
	return nc
}
