package statecache

import (
	"bytes"
	"sync"
)

// Segments is a search's segment table: every distinct fingerprint
// segment — one process's or one object's part of the state's text — the
// search has met, held once under a dense id from 1 up. A state is then
// one id per component, and two states are equal iff their ids are,
// because the table is exact: an id is found by byte compare, a hash
// collision costs a probe step. A transition changes a component or two,
// so a search meets few segments (hundreds, for a hundred thousand states
// of the lock server). The worst case is a component that never repeats
// one, a counter running up: the table then holds that component's text
// once per state, as the fingerprints would have.
//
// The table is append-only and lives as long as the cache whose keys
// carry its ids; the zero value is empty. The in-process workers of a
// search share it: looking a known segment up takes the read lock.
type Segments struct {
	mu    sync.RWMutex
	slots []segSlot // open addressing: a power of two long, at most half full
	texts [][]byte  // texts[id-1]
	free  []byte    // what is left of the block texts are cut from
	bytes int64
}

// segSlot holds a segment's hash and text beside its id, so that a lookup
// reads the slot and the text and nothing else. id 0 marks a free slot.
type segSlot struct {
	hash uint64
	text []byte
	id   uint32
}

// Intern returns seg's id, entering it on first sight. h is the caller's
// hash of seg and only says where to look: the same bytes must always
// arrive with the same h, and ids go by first sight, so nothing a search
// reports depends on it. The bytes are copied, so callers may reuse their
// buffer.
func (t *Segments) Intern(h uint64, seg []byte) uint32 {
	var id uint32
	t.mu.RLock()
	if s := t.find(h, seg); s != nil {
		id = s.id
	}
	t.mu.RUnlock()
	if id != 0 {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if 2*len(t.texts) >= len(t.slots) {
		old := t.slots
		t.slots = make([]segSlot, max(64, 2*len(old)))
		for _, o := range old {
			if o.id != 0 {
				*t.find(o.hash, o.text) = o
			}
		}
	}
	s := t.find(h, seg) // another worker may have entered it since
	if s.id != 0 {
		return s.id
	}
	if len(t.free) < len(seg) { // blocks grow with the text, as a shard's do
		t.free = make([]byte, max(len(seg), min(max(2*int(t.bytes), minChunk), chunkSize)))
	}
	text := t.free[:len(seg):len(seg)]
	t.free = t.free[len(seg):]
	copy(text, seg)
	t.texts = append(t.texts, text)
	*s = segSlot{hash: h, text: text, id: uint32(len(t.texts))}
	t.bytes += int64(len(seg))
	return s.id
}

// find probes for seg and returns its slot, or the free slot where the
// probe ended; nil in a table with no slots yet. Called with the lock
// held.
func (t *Segments) find(h uint64, seg []byte) *segSlot {
	if len(t.slots) == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.id == 0 || s.hash == h && bytes.Equal(s.text, seg) {
			return s
		}
	}
}

// Text returns the text of segment id. The table never moves or rewrites
// a text it holds, so the slice stays valid as long as the table; the
// caller must not write to it.
func (t *Segments) Text(id uint32) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.texts[id-1]
}

// AppendText appends the text of segment id to dst.
func (t *Segments) AppendText(dst []byte, id uint32) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append(dst, t.texts[id-1]...)
}

// Size returns the number of segments and the bytes of their text.
func (t *Segments) Size() (n, textBytes int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int64(len(t.texts)), t.bytes
}
