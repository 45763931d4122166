package explore

import (
	"fmt"
	"strings"
	"testing"

	"reclose/internal/fiveess"
	"reclose/internal/interp"
	"reclose/internal/progs"
)

// wideRing returns a closed program with n processes, each cycling its
// own private semaphore — except the first and last, which also grab
// two shared semaphores in opposite orders (a reachable deadlock whose
// participants live in different 64-bit mask words once n > 64).
func wideRing(n int) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("sem wa = 1;")
	w("sem wb = 1;")
	for i := 0; i < n; i++ {
		w("sem lock%d = 1;", i)
	}
	for i := 0; i < n; i++ {
		w("proc p%d() {", i)
		w("    wait(lock%d);", i)
		switch i {
		case 0:
			w("    wait(wa);")
			w("    wait(wb);")
			w("    signal(wb);")
			w("    signal(wa);")
		case n - 1:
			w("    wait(wb);")
			w("    wait(wa);")
			w("    signal(wa);")
			w("    signal(wb);")
		}
		w("    signal(lock%d);", i)
		w("}")
		w("process p%d;", i)
	}
	return b.String()
}

// TestFootprintTableMatchesSets pins the mask/matrix forms of the
// footprint table to the map semantics they replaced: every query the
// per-state loop now answers from bitmasks — pairwise overlap,
// per-object process membership — must agree with a direct
// reimplementation over the raw footprint sets. The wide case has more
// than 64 processes, so the per-object masks span multiple words.
func TestFootprintTableMatchesSets(t *testing.T) {
	cases := map[string]string{
		"philosophers-5": progs.Philosophers(5),
		"pipeline-3-2":   progs.Pipeline(3, 2),
		"fiveess-small":  fiveess.Source(fiveess.Scale("small")),
		"wide-70":        wideRing(70),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			u := mustClose(t, src)
			sets := footprintSets(u)
			tab := footprints(u)
			if tab.n != len(sets) {
				t.Fatalf("table covers %d processes, sets %d", tab.n, len(sets))
			}
			for q := 0; q < tab.n; q++ {
				for m := 0; m < tab.n; m++ {
					want := overlapSets(sets[q], sets[m])
					if got := tab.overlaps(q, m); got != want {
						t.Errorf("overlaps(%d,%d) = %t, map semantics say %t", q, m, got, want)
					}
					if tab.overlaps(q, m) != tab.overlaps(m, q) {
						t.Errorf("overlap matrix asymmetric at (%d,%d)", q, m)
					}
				}
			}
			// Every (object, process) membership bit agrees with the sets,
			// and the unit's object numbering — what the table is indexed
			// by — covers the union of the sets.
			num := interp.NumberUnit(u)
			if len(num.Objects) != tab.numObjs {
				t.Fatalf("table has %d objects, the numbering %d", tab.numObjs, len(num.Objects))
			}
			for _, fp := range sets {
				for o := range fp {
					if num.Object(o) < 0 {
						t.Errorf("footprint object %q has no index", o)
					}
				}
			}
			for oi, o := range num.Objects {
				for p := 0; p < tab.n; p++ {
					bit := tab.objProcs[oi*tab.procWords+(p>>6)]&(1<<uint(p&63)) != 0
					if bit != sets[p][o] {
						t.Errorf("objProcs[%q].bit(%d) = %t, sets say %t", o, p, bit, sets[p][o])
					}
				}
			}
			if name == "wide-70" && tab.procWords < 2 {
				t.Fatalf("wide case has procWords=%d; the multi-word path is not exercised", tab.procWords)
			}
		})
	}
}

// TestWideMaskExploration drives the multi-word mask path end to end:
// with 70 mostly-independent processes the persistent sets must shrink
// the search to something tractable while still reaching the deadlock
// between processes 0 and 69 — whose mask bits sit in different words.
// Dynamic POR must find the same distinct incidents.
func TestWideMaskExploration(t *testing.T) {
	closed := mustClose(t, wideRing(70))
	static, err := Explore(closed, Options{MaxIncidents: 1 << 20, MaxStates: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if static.Incomplete {
		t.Fatalf("static search did not complete within bounds — persistent sets failed to prune: %s", static)
	}
	if static.Deadlocks == 0 {
		t.Fatal("the cross-word deadlock was not found")
	}
	dynamic, err := Explore(closed, Options{POR: PORDynamic, MaxIncidents: 1 << 20, MaxStates: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.Incomplete {
		t.Fatalf("dynamic search did not complete within bounds: %s", dynamic)
	}
	if got, want := digest(dynamic, sameIncidents), digest(static, sameIncidents); got != want {
		t.Errorf("incident set diverged:\n--- dynamic ---\n%s\n--- static ---\n%s", got, want)
	}
}
