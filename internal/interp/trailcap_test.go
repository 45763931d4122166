package interp

import (
	"testing"

	"reclose/internal/core"
)

// TestTrailReleasesGrownLog: a transition that runs to the divergence
// bound under a mark logs every store it makes, far past maxTrail; the
// mark that drops that log, and a Reset, must not keep its storage.
func TestTrailReleasesGrownLog(t *testing.T) {
	u, err := core.CompileSource(`
proc main() {
    var x = 0;
    var y = 0;
    var z = 0;
    while (x >= 0) { x = x + 1; y = y + 1; z = z + 1; }
}
process main;
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resolve(u)
	if err != nil {
		t.Fatal(err)
	}
	ch := FixedChooser(0)
	retained := func(s *System) int {
		tr := &s.tr
		return max(cap(tr.ops), cap(tr.cells), cap(tr.steps), cap(tr.refs))
	}
	for _, drop := range []struct {
		name string
		do   func(s *System)
	}{
		{"Mark", func(s *System) { s.Mark() }},
		{"Reset", func(s *System) { s.Reset() }},
	} {
		s := r.NewSystem()
		s.Mark()
		out := s.Init(ch)
		if out == nil || out.Kind != OutDivergence {
			t.Fatalf("Init = %v, want a divergence", out)
		}
		if n := len(s.tr.ops); n <= maxTrail {
			t.Fatalf("the diverging Init logged %d entries, want over %d", n, maxTrail)
		}
		drop.do(s)
		if n := retained(s); n > maxTrail {
			t.Errorf("after a diverging Init and a %s the trail keeps room for %d entries, want at most %d",
				drop.name, n, maxTrail)
		}
	}
}
