package explore

import (
	"fmt"
	"math/rand"
	"slices"
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

// fixpointPersistentSet is the persistent set as it was computed before
// the closures were kept by running mask: the object-private test,
// then a closure grown from the first enabled process by footprint
// overlap over the running processes until nothing changes. closure
// says the set is a closure's smaller than the enabled set.
func fixpointPersistentSet(t *footprintTable, pend []interp.Pending, enabled []int) (set []int, closure bool) {
	if len(enabled) <= 1 {
		return enabled, false
	}
	n, pw := len(pend), t.procWords
	running := make([]uint64, pw)
	for q, pd := range pend {
		if pd.Flags&interp.PendRunning != 0 {
			running[q>>6] |= 1 << uint(q&63)
		}
	}
	for _, p := range enabled {
		private := true
		base := int(pend[p].Obj) * pw
		for w := 0; base >= 0 && w < pw; w++ {
			m := t.objProcs[base+w] & running[w]
			if w == p>>6 {
				m &^= 1 << uint(p&63)
			}
			if m != 0 {
				private = false
				break
			}
		}
		if private {
			return []int{p}, false
		}
	}
	inS := make([]bool, n)
	inS[enabled[0]] = true
	members := []int{enabled[0]}
	for changed := true; changed; {
		changed = false
		for q := 0; q < n; q++ {
			if inS[q] || running[q>>6]&(1<<uint(q&63)) == 0 {
				continue
			}
			for _, m := range members {
				if t.overlaps(q, m) {
					inS[q] = true
					members = append(members, q)
					changed = true
					break
				}
			}
		}
	}
	var out []int
	for _, p := range enabled {
		if inS[p] {
			out = append(out, p)
		}
	}
	return out, len(out) < len(enabled)
}

// randomFootprints returns a footprint table over n processes and objs
// objects in which each process touches each object with probability
// density.
func randomFootprints(r *rand.Rand, n, objs int, density float64) *footprintTable {
	t := &footprintTable{n: n, numObjs: objs, procWords: (n + 63) / 64}
	t.objProcs = make([]uint64, objs*t.procWords)
	touches := make([][]bool, n)
	for p := range touches {
		touches[p] = make([]bool, objs)
		for o := range touches[p] {
			if r.Float64() < density {
				touches[p][o] = true
				t.objProcs[o*t.procWords+p>>6] |= 1 << uint(p&63)
			}
		}
	}
	t.overlap = make([]uint64, n*t.procWords)
	for p := range touches {
		for q := range touches {
			for o := range objs {
				if touches[p][o] && touches[q][o] {
					t.overlap[p*t.procWords+q>>6] |= 1 << uint(q&63)
				}
			}
		}
	}
	return t
}

// TestPersistentSetLookupMatchesFixpoint holds persistentSet, whose
// closure is a component kept for the last running mask, to the fixpoint
// it replaced, on random footprint tables (up to 150 processes, so masks
// of up to three words), random running masks and enabled subsets. Each
// engine answers many states drawn from a few masks, so its memo is met
// both by the mask it holds and by a different one.
func TestPersistentSetLookupMatchesFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	wide, closures := 0, 0
	for table := 0; table < 60; table++ {
		n := 1 + r.Intn(150)
		if table%3 == 0 {
			n = 65 + r.Intn(86)
		}
		objs := 1 + r.Intn(12)
		ft := randomFootprints(r, n, objs, 0.05+0.3*r.Float64())
		if ft.procWords > 1 {
			wide++
		}
		e := &engine{footprint: ft}
		// A few running masks per table, each met by many states.
		masks := make([][]bool, 1+r.Intn(4))
		for i := range masks {
			masks[i] = make([]bool, n)
			pRun := r.Float64()
			for q := range masks[i] {
				masks[i][q] = r.Float64() < pRun
			}
		}
		for state := 0; state < 40; state++ {
			mask := masks[r.Intn(len(masks))]
			pEn := r.Float64()
			e.pend = e.pend[:0]
			for q := 0; q < n; q++ {
				pd := interp.Pending{Obj: int32(r.Intn(objs+1)) - 1, Site: -1, Slot: -1}
				if mask[q] {
					pd.Flags |= interp.PendRunning
					if r.Float64() < pEn {
						pd.Flags |= interp.PendEnabled
					}
				}
				e.pend = append(e.pend, pd)
			}
			e.scanEnabled()
			want, closure := fixpointPersistentSet(ft, e.pend, e.enBuf)
			if closure {
				closures++
			}
			if got := e.persistentSet(e.enBuf); !slices.Equal(got, want) {
				t.Fatalf("table %d (%d processes, %d objects), state %d: enabled %v: persistentSet %v, the fixpoint %v",
					table, n, objs, state, e.enBuf, got, want)
			}
		}
	}
	if wide == 0 || closures < 100 {
		t.Fatalf("%d tables wider than one mask word, %d states whose closure left an enabled process out", wide, closures)
	}
}

// TestComponentMemoAllocatesNothing: a search whose processes terminate
// in many orders meets a new running mask at many states; labelling one
// again reuses the memo's storage.
func TestComponentMemoAllocatesNothing(t *testing.T) {
	ft := randomFootprints(rand.New(rand.NewSource(2)), 130, 8, 0.2)
	masks := [][]uint64{{^uint64(0), ^uint64(0), 3}, {0x5555, 1 << 63, 1}, {7, 0, 2}}
	var cm componentMemo
	cm.lookup(ft, masks[0])
	k := 0
	if n := testing.AllocsPerRun(100, func() {
		k++
		cm.lookup(ft, masks[k%len(masks)])
	}); n != 0 {
		t.Errorf("a lookup under a new mask allocated %.1f times, want 0", n)
	}
}
