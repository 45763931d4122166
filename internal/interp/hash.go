package interp

import "hash/maphash"

// Incremental state identity: the canonical global state's 64-bit
// hash and its fingerprint bytes, both kept with the components they
// describe and updated as those change, instead of re-walking all slots
// and objects at every visible operation.
//
// The hash first.
//
// The scheme is component-based so updates commute with execution
// order: every live cell contributes mix64(position key, value hash)
// to an XOR accumulator, where the position key is derived from
// (process index, frame depth, slot) — exactly the coordinates the
// canonical fingerprint renders the cell at. Object hashes are kept
// per object and refreshed after the (single) object a visible
// operation mutates. StateHash folds the accumulator, the object
// hashes, and the control component (statuses, stack shapes, control
// points) — all pure functions of the canonical state, never of
// machine addresses (value hashing is pointer-blind), so equal
// fingerprints always hash equal.
//
// Soundness: the hash routes statecache shards and buckets; equality
// of states is still decided on the full fingerprint bytes
// (compare-by-bytes), so a collision costs a bucket scan, never a
// wrong prune. Cells that leave the live stack (popped frames reached
// only through stale pointers) are folded out and marked with key 0;
// later writes through stale pointers skip the accumulator, matching
// the fingerprint, which never renders stale storage.
//
// The fingerprint is kept the same way, as key segments: each object's
// is the text rehashObj renders to hash it, each Proc carries its own
// and a valid bit (segOK), and AppendFingerprint concatenates them,
// rendering only the processes whose bit is clear. A process's segment
// reads that process's status, stack, control point and cells only, so
// the bit is cleared by Step and Init for each process they run, by
// rebuildHash (Reset, SetStateHashing) for all, and for every process by
// a store through a pointer to a live cell (hkey != 0) outside the
// running process's frames — its owner did not run (opStorePtr).
// Fork copies segments and bits with the state they describe, so a
// fork is as current as its source. The bytes are
// the full walk's (keyseg_test.go, one test per rule).
//
// What a search stores of a state is shorter: AppendKey writes, for each
// object and process in that order, the id its segment has in the
// search's SegmentTable as a uvarint — a few hundred segments take one or
// two bytes each. A unit has a fixed number of components and a uvarint
// ends itself, so the row decodes one way only: two keys under one table
// are equal iff their ids are, iff the fingerprints are. AppendKey
// returns the fingerprint's length beside the key. An id travels with
// its segment and is looked up once per rendering: whoever renders a
// segment (procSeg, rehashObj) zeroes the id, the trail and Fork
// carry it with the segment, and a key asked for under another table
// zeroes them all. A machine that keeps no segments — hashing off,
// the reference — answers AppendKey with the fingerprint itself.
//
// The incremental path is maintained only while hashing is switched on
// (SetStateHashing; the explorer does it for cached and liveness
// searches). A System with hashing off and the reference interpreter
// compute the same hash from scratch (RecomputeStateHash,
// RefSystem.StateHash) and render every fingerprint in full, which
// keeps keys, shard routing — and therefore eviction behavior and
// merged reports — byte-identical between them.

const hashSeed = 0x9e3779b97f4a7c15

// SegmentTable names key segments for AppendKey: Intern returns the id,
// never 0, of these bytes and no others; hash is a function of the bytes
// that says where to look. One table (statecache.Segments) serves every
// machine of a search.
type SegmentTable interface {
	Intern(hash uint64, seg []byte) uint32
}

// segSeed seeds the hash a process segment is looked up by (an object's
// goes by the hash rehashObj took). It shows in nothing a search reports.
var segSeed = maphash.MakeSeed()

// Mix64 combines two 64-bit values with strong avalanche (splitmix64
// finalizer over the xor). Exported for the explorer, which mixes the
// state hash with the hash of the sleep-set key suffix to form the
// cache routing hash.
func Mix64(a, b uint64) uint64 {
	x := a ^ (b + hashSeed + (a << 6) + (a >> 2))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnvBytes is 64-bit FNV-1a (kept local so interp does not depend on
// the statecache package; the constants are the standard ones, and the
// explorer relies on this matching statecache.FNV1a for suffix mixing).
func fnvBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func fnvString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// valHash hashes a value as the fingerprint renders it, except that
// pointers hash only their element index: the fingerprint's pointer
// labels depend on which frame the target lives in, which the cell
// cannot know locally. Collapsing pointer targets is only a source of
// hash collisions (resolved by the byte compare), never of instability
// — the hash stays a pure function of the canonical state.
func valHash(v Value) uint64 {
	switch v.Kind {
	case KUndef:
		return 0xa0761d6478bd642f
	case KInt:
		return Mix64(1, uint64(v.I))
	case KBool:
		return Mix64(2, uint64(v.I))
	case KPtr:
		return Mix64(3, uint64(v.I)+1)
	case KArray:
		h := Mix64(4, uint64(v.I))
		for _, e := range v.Arr() {
			h = Mix64(h, valHash(e))
		}
		return h
	}
	return 0
}

// cellKey derives a cell's position key from its fingerprint
// coordinates. Key 0 is reserved for "not live"; the |1 keeps live
// keys off the sentinel at the cost of one hash bit.
func cellKey(procIdx, depth, slot int) uint64 {
	return Mix64(Mix64(hashSeed, uint64(procIdx)<<32|uint64(depth)), uint64(slot)) | 1
}

// noteWrite refreshes a live cell's contribution after its value
// changed. Cells with key 0 (stale storage) are skipped: the
// fingerprint never renders them.
func (s *System) noteWrite(c *Cell) {
	if c == nil || c.hkey == 0 {
		return
	}
	nc := Mix64(c.hkey, valHash(c.V))
	s.acc ^= c.hc ^ nc
	c.hc = nc
}

// foldFrameIn assigns position keys to a freshly pushed frame's cells
// and folds their contributions into the accumulator. depth is the
// frame's index in the process stack.
func (s *System) foldFrameIn(p *Proc, depth int, f *frame) {
	for i := range f.cells {
		c := &f.cells[i]
		c.hkey = cellKey(p.Index, depth, i)
		c.hc = Mix64(c.hkey, valHash(c.V))
		s.acc ^= c.hc
	}
}

// foldFrameOut removes a popped frame's contributions and marks its
// cells stale (key 0), so later writes through stale pointers cannot
// perturb the accumulator.
func (s *System) foldFrameOut(f *frame) {
	for i := range f.cells {
		c := &f.cells[i]
		if c.hkey != 0 {
			s.acc ^= c.hc
			c.hkey, c.hc = 0, 0
		}
	}
}

// foldProcOut removes every contribution of a process's stack; called
// when the process terminates, because the fingerprint renders no
// frames (and no cells) of a terminated process.
func (s *System) foldProcOut(p *Proc) {
	for _, f := range p.stack {
		s.foldFrameOut(f)
	}
}

// rehashObj refreshes one object's hash after a mutating visible op,
// keeping the text it hashed (plus the fingerprint's ';') as the
// object's key segment.
func (s *System) rehashObj(i int) {
	seg := s.objs[i].appendFingerprint(s.objSeg[i][:0])
	s.objHash[i] = fnvBytes(seg)
	s.objSeg[i], s.objID[i] = append(seg, ';'), 0
}

// SetStateHashing turns incremental hashing on or off. Turning it on
// (re)builds the accumulator and object hashes from the current state.
// Forked systems inherit the setting and the rolling state.
func (s *System) SetStateHashing(on bool) {
	s.dropTrail() // the log's contributions are the other setting's
	s.hashOn = on
	if on {
		s.rebuildHash()
	}
}

// rebuildHash recomputes the incremental state from scratch: cell
// keys and contributions for every live frame, all object hashes and
// segments; every process segment is left to be rendered.
func (s *System) rebuildHash() {
	s.acc = 0
	for i := range s.objs {
		s.rehashObj(i)
	}
	for _, p := range s.Procs {
		p.segOK = false
		if p.status != Running {
			continue
		}
		for depth, f := range p.stack {
			s.foldFrameIn(p, depth, f)
		}
	}
}

// controlHash folds a process's control component: status, and for a
// running process the stack of procedure names with the resume points
// the fingerprint renders (top node for the top frame, call node for
// the frames below).
func controlHash(h uint64, status Status, curID int, stack []*frame) uint64 {
	h = Mix64(h, uint64(status))
	if status != Running {
		return h
	}
	for fi, f := range stack {
		h = Mix64(h, f.code.nameH)
		if fi == len(stack)-1 {
			h = Mix64(h, uint64(curID)*2+1)
		} else {
			h = Mix64(h, uint64(stack[fi+1].callNode)*2)
		}
	}
	return h
}

// StateHash returns the 64-bit hash of the current canonical state:
// the incremental value when hashing is live, otherwise a full
// recomputation. Equal fingerprints always produce equal hashes.
func (s *System) StateHash() uint64 {
	if !s.hashOn {
		return s.RecomputeStateHash()
	}
	s.met.HashIncr.Inc()
	h := uint64(hashSeed)
	for _, oh := range s.objHash {
		h = Mix64(h, oh)
	}
	for _, p := range s.Procs {
		curID := -1
		if p.cur != nil {
			curID = p.cur.ID
		}
		h = controlHash(h, p.status, curID, p.stack)
	}
	return Mix64(h, s.acc)
}

// RecomputeStateHash computes StateHash's function by walking the full
// state. The incremental path must agree with it exactly after every
// visible operation — the machine judge checks that.
func (s *System) RecomputeStateHash() uint64 {
	s.met.HashFull.Inc()
	h := uint64(hashSeed)
	buf := s.objFpBuf
	for _, o := range s.objs {
		buf = o.appendFingerprint(buf[:0])
		h = Mix64(h, fnvBytes(buf))
	}
	s.objFpBuf = buf
	var acc uint64
	for _, p := range s.Procs {
		curID := -1
		if p.cur != nil {
			curID = p.cur.ID
		}
		h = controlHash(h, p.status, curID, p.stack)
		if p.status != Running {
			continue
		}
		for depth, f := range p.stack {
			for i := range f.cells {
				k := cellKey(p.Index, depth, i)
				acc ^= Mix64(k, valHash(f.cells[i].V))
			}
		}
	}
	return Mix64(h, acc)
}
