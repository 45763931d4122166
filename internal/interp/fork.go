package interp

import (
	"unsafe"

	"reclose/internal/comm"
)

// This file is the compiled machine's one state-copy implementation.
// copyState overwrites a System with another System's whole mutable
// state in place; CopyFrom is that routine behind the Machine
// interface (the explorer's restore-based backtracking: snapshots are
// taken and restored once per explored path, so the copy must not
// allocate), and Fork is the same routine run into a blank System.
//
// The copy is positional. Two Systems over one Resolution have the same
// processes and objects in the same order, and after the shape pass the
// same frames at the same stack depths, so the cell at (process, frame,
// slot) of the source corresponds to the cell at the same coordinates
// of the receiver. A pointer value is remapped by locating its target's
// coordinates in the source — an address-range test against each live
// frame's cell array — and taking the receiver's cell there: no
// identity map over every cell, and nothing to allocate. Only a target
// outside every live frame (a stale pointer into a popped frame, kept
// reachable through the pointer alone) has no position; Fork clones
// such cells on demand through a small identity map, CopyFrom gives up
// and reports false.

// CopyFrom overwrites the receiver's whole state — communication
// objects, process stacks, stores, control points, incremental-hash
// bookkeeping — with src's, reusing the receiver's storage. It reports
// false ("cannot; replay instead") when src is not a System over the
// same Resolution, or when src holds a pointer whose target lies
// outside every live frame; the receiver's state is then unspecified,
// fit only for Reset or another CopyFrom. src is only read, so any
// number of machines may copy from one source concurrently. On success both machines render byte-identical
// fingerprints and state hashes, and mutations of either never show in
// the other.
func (s *System) CopyFrom(src Machine) bool {
	ss, ok := src.(*System)
	if !ok || ss.res != s.res {
		return false
	}
	return s.copyState(ss, false)
}

// Fork returns an independent deep copy of the system's current state:
// communication objects, process stacks, stores, and control points.
// The receiver is only read; mutations of either system never affect
// the other, and both render byte-identical fingerprints for the state
// at the moment of the fork.
//
// Fork is a blank System over the shared immutable Resolution (compiled
// code) with the receiver's state copied into it. The explorer forks
// when a state has to outlive the engine that reached it — a
// snapshot-spill work unit, a fresh slot of the backtracking snapshot
// pool, an edge of the liveness red search; everywhere else it
// overwrites an existing machine with CopyFrom.
func (s *System) Fork() *System {
	s.met.Forks.Inc()
	ns := s.res.NewSystem()
	ns.met = s.met
	ns.copyState(s, true)
	return ns
}

// copier is the scratch of one copyState run. It lives inside the
// receiving System so a copy allocates nothing.
type copier struct {
	dst, src *System
	// cloneStale selects Fork's treatment of pointer targets outside
	// every live frame: clone on demand through stale (made on first
	// use). When false such a target fails the copy.
	cloneStale bool
	stale      map[*Cell]*Cell
	failed     bool
}

// copyState overwrites s with src's state; see CopyFrom. Both systems
// are instances of one Resolution.
func (s *System) copyState(src *System, cloneStale bool) bool {
	s.dropTrail()
	cp := &s.cp
	*cp = copier{dst: s, src: src, cloneStale: cloneStale}

	// Shape pass: give every process the source's stack shape, keeping
	// the receiver's frames where they are and drawing on its frame pool
	// for deeper stacks. Every cell is overwritten below, so a reused
	// frame needs no zeroing and its address-taken history is moot —
	// nothing in the state being replaced survives to read through it.
	for i, sp := range src.Procs {
		dp := s.Procs[i]
		dp.cur, dp.status, dp.vis = sp.cur, sp.status, sp.vis
		if dp.segOK = sp.segOK; sp.segOK { // the key segment goes with its process
			dp.seg, dp.segID = append(dp.seg[:0], sp.seg...), sp.segID
		}
		for k := len(dp.stack) - 1; k >= len(sp.stack); k-- {
			s.putFrame(dp.stack[k])
			dp.stack[k] = nil
			dp.stack = dp.stack[:k]
		}
		for fi, sf := range sp.stack {
			var df *frame
			if fi < len(dp.stack) {
				df = dp.stack[fi]
			} else {
				df = s.takeFrame()
				dp.stack = append(dp.stack, df)
			}
			if n := len(sf.cells); cap(df.cells) >= n {
				df.cells = df.cells[:n]
			} else {
				df.cells = make([]Cell, n)
			}
			df.code, df.callNode, df.retPC, df.pinned = sf.code, sf.callNode, sf.retPC, sf.pinned
		}
	}

	// Value pass. The hash bookkeeping is position-based, so it copies
	// verbatim with the cells.
	for i, sp := range src.Procs {
		dp := s.Procs[i]
		for fi, sf := range sp.stack {
			cp.cells(dp.stack[fi].cells, sf.cells)
		}
	}

	payload := cp.payload
	for i, so := range src.objs {
		switch d := s.objs[i].(type) {
		case *comm.Chan:
			d.CopyFrom(so.(*comm.Chan), payload)
		case *comm.Sem:
			d.CopyFrom(so.(*comm.Sem))
		case *comm.Shared:
			d.CopyFrom(so.(*comm.Shared), payload)
		}
	}

	s.hashOn, s.acc = src.hashOn, src.acc
	if src.hashOn {
		copy(s.objHash, src.objHash)
		for i, seg := range src.objSeg {
			s.objSeg[i] = append(s.objSeg[i][:0], seg...)
		}
		s.tab = src.tab
		copy(s.objID, src.objID)
	}
	s.MaxInvisible = src.MaxInvisible
	ok := !cp.failed
	*cp = copier{}
	return ok
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

// takeFrame returns a frame from the pool, or a fresh one; the caller
// sizes and overwrites it.
func (s *System) takeFrame() *frame {
	if k := len(s.pool); k > 0 {
		f := s.pool[k-1]
		s.pool = s.pool[:k-1]
		return f
	}
	return &frame{}
}

// cells copies one frame's cell array. A frame of scalars and pointers
// — nearly every frame — is one block copy plus a fix-up of its pointer
// targets; only a frame holding arrays goes cell by cell, so each array
// can land in the backing the receiver's cell already has.
func (cp *copier) cells(dst, src []Cell) {
	ptrs, arrays := false, false
	for i := range src {
		switch src[i].V.Kind {
		case KPtr:
			ptrs = true
		case KArray:
			arrays = true
		}
	}
	if arrays {
		for i := range src {
			sc, dc := &src[i], &dst[i]
			dc.hkey, dc.hc = sc.hkey, sc.hc
			cp.valueInto(&dc.V, sc.V)
		}
		return
	}
	copy(dst, src)
	if ptrs {
		for i := range dst {
			if v := &dst[i].V; v.Kind == KPtr {
				v.Ptr.Cell = cp.cell(v.Ptr.Cell)
			}
		}
	}
}

// payload copies one value stored in a communication object. Scalars
// are immutable once boxed, so both machines share the box; pointers
// and arrays get a remapped deep copy.
func (cp *copier) payload(v any) any {
	val := v.(Value)
	if val.Kind < KPtr {
		return v
	}
	var out Value
	cp.valueInto(&out, val)
	return out
}

// valueInto stores a deep copy of v in *d with pointer targets remapped
// into the receiving system. An array reuses d's backing when d already
// holds an array of the same length — the steady state of a snapshot
// slot copied over and over along one path.
func (cp *copier) valueInto(d *Value, v Value) {
	switch v.Kind {
	case KPtr:
		v.Ptr.Cell = cp.cell(v.Ptr.Cell)
	case KArray:
		arr := d.Arr
		if d.Kind != KArray || len(arr) != len(v.Arr) {
			arr = make([]Value, len(v.Arr))
		}
		for i, e := range v.Arr {
			if e.Kind == KArray {
				// Value.Copy is shallow, so nested backings may be
				// shared between cells: never reuse one.
				arr[i] = Value{}
			}
			cp.valueInto(&arr[i], e)
		}
		v.Arr = arr
	}
	*d = v
}

// cell maps a source cell to the receiver's cell at the same (process,
// frame, slot) position. A cell outside the live frames is cloned on
// demand under Fork — registered before its value is copied, so pointer
// cycles terminate — and fails the copy otherwise.
func (cp *copier) cell(c *Cell) *Cell {
	if c == nil {
		return nil
	}
	for pi, p := range cp.src.Procs {
		if fi, i := p.locate(c); fi >= 0 {
			return &cp.dst.Procs[pi].stack[fi].cells[i]
		}
	}
	if !cp.cloneStale {
		cp.failed = true
		return nil
	}
	if nc, ok := cp.stale[c]; ok {
		return nc
	}
	if cp.stale == nil {
		cp.stale = make(map[*Cell]*Cell)
	}
	nc := &Cell{}
	cp.stale[c] = nc
	cp.valueInto(&nc.V, c.V)
	return nc
}
