package statecache

import "testing"

func TestStackSetPushLookup(t *testing.T) {
	s := NewStackSet()
	if s.Len() != 0 {
		t.Fatalf("Len of empty = %d", s.Len())
	}
	s.Push(0, 1, []byte("a"))
	s.Push(1, 2, []byte("b"))
	s.Push(2, 3, []byte("c"))
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for i, want := range []string{"a", "b", "c"} {
		if got := string(s.Key(i)); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
	if d, ok := s.Lookup(2, []byte("b")); !ok || d != 1 {
		t.Errorf("Lookup(b) = %d, %t; want 1, true", d, ok)
	}
	if _, ok := s.Lookup(9, []byte("z")); ok {
		t.Error("Lookup of absent hash succeeded")
	}
	// Same hash, different bytes: the byte-compare confirm must reject.
	if _, ok := s.Lookup(2, []byte("B")); ok {
		t.Error("Lookup matched on hash despite differing fingerprint")
	}
}

func TestStackSetHashCollision(t *testing.T) {
	s := NewStackSet()
	s.Push(0, 7, []byte("x"))
	s.Push(1, 7, []byte("y")) // same hash, different state
	if d, ok := s.Lookup(7, []byte("x")); !ok || d != 0 {
		t.Errorf("Lookup(x) = %d, %t; want 0, true", d, ok)
	}
	if d, ok := s.Lookup(7, []byte("y")); !ok || d != 1 {
		t.Errorf("Lookup(y) = %d, %t; want 1, true", d, ok)
	}
}

// TestStackSetRepeatedState pins which occurrence Lookup names when a
// state sits on the stack more than once (a cycle with progress is
// pushed again): the shallowest, whatever was truncated in between, and
// a steady push/truncate cycle allocates nothing.
func TestStackSetRepeatedState(t *testing.T) {
	s := NewStackSet()
	for d, k := range []string{"a", "b", "a", "c", "a"} {
		s.Push(d, uint64(k[0]), []byte(k))
	}
	if d, ok := s.Lookup('a', []byte("a")); !ok || d != 0 {
		t.Errorf("Lookup(a) = %d, %t; want 0, true", d, ok)
	}
	s.Truncate(3)
	s.Push(3, 'a', []byte("a"))
	if d, ok := s.Lookup('a', []byte("a")); !ok || d != 0 {
		t.Errorf("after re-push: Lookup(a) = %d, %t; want 0, true", d, ok)
	}
	s.Truncate(0)
	if _, ok := s.Lookup('a', []byte("a")); ok || s.Len() != 0 {
		t.Error("emptied set still finds a")
	}
	s.Push(0, 'a', []byte("a"))
	if n := testing.AllocsPerRun(100, func() {
		s.Push(1, 'b', []byte("b"))
		s.Push(2, 'a', []byte("a"))
		s.Truncate(1)
	}); n != 0 {
		t.Errorf("steady push/truncate allocates %v times", n)
	}
}

func TestStackSetTruncate(t *testing.T) {
	s := NewStackSet()
	s.Push(0, 1, []byte("a"))
	s.Push(1, 2, []byte("b"))
	s.Push(2, 3, []byte("c"))
	s.Truncate(1)
	if s.Len() != 1 {
		t.Fatalf("Len after Truncate(1) = %d, want 1", s.Len())
	}
	if _, ok := s.Lookup(2, []byte("b")); ok {
		t.Error("truncated entry still found")
	}
	if _, ok := s.Lookup(3, []byte("c")); ok {
		t.Error("truncated entry still found")
	}
	if d, ok := s.Lookup(1, []byte("a")); !ok || d != 0 {
		t.Errorf("surviving entry lost: %d, %t", d, ok)
	}
	// The index must not leak chains for truncated hashes.
	if len(s.index) != 1 {
		t.Errorf("index holds %d hashes after truncation, want 1", len(s.index))
	}
	// Truncate past the end is a no-op.
	s.Truncate(5)
	if s.Len() != 1 {
		t.Errorf("Truncate past end changed Len to %d", s.Len())
	}
}

// TestStackSetOverwrite exercises the replay pattern: push, truncate by
// re-pushing at a shallower depth, and confirm the overwritten entry's
// reused buffer holds the new fingerprint.
func TestStackSetOverwrite(t *testing.T) {
	s := NewStackSet()
	s.Push(0, 1, []byte("aaaa"))
	s.Push(1, 2, []byte("bbbb"))
	s.Push(1, 5, []byte("ee")) // implicit Truncate(1), buffer reuse
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, ok := s.Lookup(2, []byte("bbbb")); ok {
		t.Error("overwritten entry still found")
	}
	if d, ok := s.Lookup(5, []byte("ee")); !ok || d != 1 {
		t.Errorf("Lookup(ee) = %d, %t; want 1, true", d, ok)
	}
	if got := string(s.Key(1)); got != "ee" {
		t.Errorf("Key(1) = %q, want %q", got, "ee")
	}
}

func TestStackSetDepthGapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Push with a depth gap did not panic")
		}
	}()
	s := NewStackSet()
	s.Push(1, 1, []byte("a"))
}
