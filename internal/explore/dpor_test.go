package explore

import (
	"context"
	"fmt"
	"testing"

	"reclose/internal/fiveess"
	"reclose/internal/progs"
)

// TestDPOREquivalence is the dynamic-POR soundness contract: across
// search modes {dfs, priority} × workers {0, 2, 4} × SnapshotSpill ×
// cache shards {off, 1, 8} (run under -race by verify.sh), a complete
// dynamic-POR search finds exactly the distinct incident set of the
// sequential static-POR oracle. Dynamic POR and priority search relax
// exploration *order* — States/Transitions/Paths legitimately shrink
// or reorder — but never soundness: no deadlock, violation, trap, or
// divergence reachable under the oracle may be missed, and none may
// appear from nowhere.
func TestDPOREquivalence(t *testing.T) {
	cases := map[string]string{
		"pipeline-2-2":   progs.Pipeline(2, 2),
		"philosophers-3": progs.Philosophers(3),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			closed := mustClose(t, src)
			oracle, err := Explore(closed, Options{MaxIncidents: 1 << 20})
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if oracle.Incomplete {
				t.Fatalf("oracle did not complete: %s", oracle)
			}
			want := incidentSet(oracle)
			for _, search := range []SearchMode{SearchDFS, SearchPriority} {
				for _, workers := range []int{0, 2, 4} {
					for _, spill := range []bool{false, true} {
						for _, shards := range []int{0, 1, 8} {
							opt := Options{
								POR:           PORDynamic,
								Search:        search,
								MaxIncidents:  1 << 20,
								Workers:       workers,
								SnapshotSpill: spill,
							}
							if shards > 0 {
								opt.StateCache = true
								opt.CacheShards = shards
							}
							label := fmt.Sprintf("search=%s workers=%d spill=%t shards=%d",
								search, workers, spill, shards)
							rep, err := Explore(closed, opt)
							if err != nil {
								t.Fatalf("%s: Explore: %v", label, err)
							}
							if rep.Incomplete {
								t.Fatalf("%s: search did not complete: %s", label, rep)
							}
							if got := incidentSet(rep); got != want {
								t.Errorf("%s: incident set diverged from static oracle:\n--- got ---\n%s\n--- want ---\n%s",
									label, got, want)
							}
							if (rep.Deadlocks > 0) != (oracle.Deadlocks > 0) {
								t.Errorf("%s: deadlocks=%d, oracle=%d", label, rep.Deadlocks, oracle.Deadlocks)
							}
							if (rep.Violations > 0) != (oracle.Violations > 0) {
								t.Errorf("%s: violations=%d, oracle=%d", label, rep.Violations, oracle.Violations)
							}
						}
					}
				}
			}
		})
	}
}

// TestDPORReduction pins the point of the exercise: on workloads whose
// static footprints over-approximate (the philosophers' forks are all
// potentially shared; the switch application's processes are all wired
// to the same hub channels), dynamic POR executes strictly fewer
// transitions than the static persistent sets, without losing an
// incident. Every case completes its (depth-bounded) search in both
// modes: under a MaxStates truncation each mode executes exactly
// MaxStates−Paths transitions and the comparison is meaningless.
func TestDPORReduction(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opt  Options
		// The transitions of EXPERIMENTS.md E13's rows, static, dynamic
		// and dynamic under the priority frontier; 0 leaves one unpinned.
		static, dynamic, priority int64
	}{
		{"philosophers-4", progs.Philosophers(4), Options{}, 0, 0, 0},
		{"philosophers-6", progs.Philosophers(6), Options{}, 4057, 1790, 4162},
		{"fiveess-medium-d20", fiveess.Source(fiveess.Scale("medium")), Options{MaxDepth: 20}, 0, 0, 0},
		{"fiveess-medium-d30", fiveess.Source(fiveess.Scale("medium")), Options{MaxDepth: 30}, 220939, 15080, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			closed := mustClose(t, c.src)
			sopt := c.opt
			sopt.MaxIncidents = 1 << 20
			static, err := Explore(closed, sopt)
			if err != nil {
				t.Fatal(err)
			}
			dopt := sopt
			dopt.POR = PORDynamic
			dynamic, err := Explore(closed, dopt)
			if err != nil {
				t.Fatal(err)
			}
			if static.Incomplete || dynamic.Incomplete {
				t.Fatalf("searches did not complete: static=%s dynamic=%s", static, dynamic)
			}
			if dynamic.Transitions >= static.Transitions {
				t.Errorf("dynamic POR executed %d transitions, static %d — no reduction",
					dynamic.Transitions, static.Transitions)
			}
			if got, want := incidentSet(dynamic), incidentSet(static); got != want {
				t.Errorf("incident set diverged:\n--- dynamic ---\n%s\n--- static ---\n%s", got, want)
			}
			if dynamic.PorBacktracks == 0 {
				t.Error("dynamic search inserted no backtrack points — nothing was dynamic about it")
			}
			if c.static != 0 && (static.Transitions != c.static || dynamic.Transitions != c.dynamic) {
				t.Errorf("transitions static %d dynamic %d, E13 says %d and %d",
					static.Transitions, dynamic.Transitions, c.static, c.dynamic)
			}
			if c.priority != 0 {
				// Units published by the priority frontier are expanded
				// statically and sealed (DESIGN.md §14, rule 1): direction,
				// not reduction.
				dopt.Search = SearchPriority
				prio, err := Explore(closed, dopt)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := incidentSet(prio), incidentSet(static); got != want {
					t.Errorf("incident set diverged under the priority frontier:\n%s\n--- static ---\n%s", got, want)
				}
				if prio.Transitions != c.priority {
					t.Errorf("dynamic+priority executed %d transitions, E13 says %d", prio.Transitions, c.priority)
				}
			}
		})
	}
}

// TestStrictModesUnchanged pins the determinism contract's strict side:
// POR static under DFS produces a byte-identical report whether spelled
// out or defaulted, and the dynamic-only counters stay
// zero there (so snapshots and reports serialize byte-identically to
// the pre-DPOR format).
func TestStrictModesUnchanged(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	static, err := Explore(closed, Options{MaxIncidents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	staticExplicit, err := Explore(closed, Options{POR: PORStatic, Search: SearchDFS, MaxIncidents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportDigest(staticExplicit), reportDigest(static); got != want {
		t.Errorf("explicit static mode diverged from default:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	off, err := Explore(closed, Options{POR: POROff, MaxIncidents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*Report{static, staticExplicit, off} {
		if rep.PorBacktracks != 0 || rep.PorSleepBlocked != 0 || rep.PorDynamicPruned != 0 {
			t.Errorf("strict mode bumped dynamic-POR counters: backtracks=%d sleepblocked=%d pruned=%d",
				rep.PorBacktracks, rep.PorSleepBlocked, rep.PorDynamicPruned)
		}
	}
}

// TestPrioritySearchEquivalence checks priority-directed search under
// static POR (the reduction everything else in the repo defaults to):
// same distinct incidents, same terminal counters, on sequential and
// parallel drivers, with the default and an interest-directed score.
func TestPrioritySearchEquivalence(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	oracle, err := Explore(closed, Options{MaxIncidents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want := incidentSet(oracle)
	scores := map[string][]string{
		"default":  nil,
		"interest": {"fork0", "fork1"},
	}
	for sname, interest := range scores {
		for _, workers := range []int{0, 2} {
			label := fmt.Sprintf("score=%s workers=%d", sname, workers)
			rep, err := Explore(closed, Options{
				Search:       SearchPriority,
				Interest:     interest,
				Workers:      workers,
				MaxIncidents: 1 << 20,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if rep.Incomplete {
				t.Fatalf("%s: search did not complete: %s", label, rep)
			}
			if got := incidentSet(rep); got != want {
				t.Errorf("%s: incident set diverged:\n--- got ---\n%s\n--- want ---\n%s", label, got, want)
			}
			if rep.Terminated != oracle.Terminated || rep.Deadlocks != oracle.Deadlocks ||
				rep.Violations != oracle.Violations {
				t.Errorf("%s: terminal counters diverged: got %d/%d/%d, want %d/%d/%d",
					label, rep.Terminated, rep.Deadlocks, rep.Violations,
					oracle.Terminated, oracle.Deadlocks, oracle.Violations)
			}
		}
	}
}

// TestDPORCheckpointResume pins the third soundness rule: a checkpoint
// taken mid-flight under dynamic POR carries the live DFS stack — with
// its backtrack sets, enabled sets, and seal flags — as one
// stack-continuation unit, and the resumed search finds exactly the
// incidents of an uninterrupted run. The test also asserts the
// serialized stack actually appears in the snapshot: without it the
// equivalence would only hold by luck of which interleaving diverged.
func TestDPORCheckpointResume(t *testing.T) {
	for name, src := range map[string]string{
		"philosophers-3": progs.Philosophers(3),
		"pipeline-2-2":   progs.Pipeline(2, 2),
	} {
		t.Run(name, func(t *testing.T) {
			closed := mustClose(t, src)
			base := Options{POR: PORDynamic, MaxIncidents: 1 << 20}
			full, err := Explore(closed, base)
			if err != nil {
				t.Fatal(err)
			}
			if full.Incomplete {
				t.Fatalf("uninterrupted search did not complete: %s", full)
			}
			want := incidentSet(full)
			for _, cut := range []int64{1, 4, 11} {
				ctx, cancel := context.WithCancel(context.Background())
				var snap *Snapshot
				var sawStack bool
				opt := base
				opt.CheckpointEveryPaths = cut
				opt.Checkpoint = func(s *Snapshot) {
					if snap == nil {
						snap = s
						cancel()
					}
				}
				interrupted, err := ExploreContext(ctx, closed, opt)
				cancel()
				if err != nil {
					t.Fatalf("cut=%d: ExploreContext: %v", cut, err)
				}
				if snap == nil {
					if interrupted.Incomplete {
						t.Fatalf("cut=%d: incomplete search with no snapshot", cut)
					}
					continue // completed before the first checkpoint
				}
				for _, u := range snap.Units {
					if len(u.Stack) > 0 {
						sawStack = true
						for _, fr := range u.Stack {
							if fr.Cursor < 0 || fr.Cursor >= len(fr.Options) {
								t.Fatalf("cut=%d: serialized frame cursor %d out of range of %d options",
									cut, fr.Cursor, len(fr.Options))
							}
						}
					}
				}
				if !sawStack && interrupted.Incomplete {
					t.Errorf("cut=%d: mid-flight dynamic-POR snapshot carries no stack frames", cut)
				}
				// Round-trip through the wire format so the snapFrame
				// encode/decode path is what's under test, not the
				// in-memory structs.
				data, err := snap.Encode()
				if err != nil {
					t.Fatalf("cut=%d: Encode: %v", cut, err)
				}
				decoded, err := DecodeSnapshot(data)
				if err != nil {
					t.Fatalf("cut=%d: DecodeSnapshot: %v", cut, err)
				}
				final, err := Resume(closed, decoded, base)
				if err != nil {
					t.Fatalf("cut=%d: Resume: %v", cut, err)
				}
				if final.Incomplete {
					t.Fatalf("cut=%d: resumed run did not complete", cut)
				}
				if got := incidentSet(final); got != want {
					t.Errorf("cut=%d: resumed incident set diverged:\n--- got ---\n%s\n--- want ---\n%s",
						cut, got, want)
				}
				if (final.Deadlocks > 0) != (full.Deadlocks > 0) {
					t.Errorf("cut=%d: deadlocks=%d, uninterrupted=%d", cut, final.Deadlocks, full.Deadlocks)
				}
			}
		})
	}
}

// TestParseModes covers the flag-level parsers.
func TestParseModes(t *testing.T) {
	for s, want := range map[string]PORMode{"": PORStatic, "static": PORStatic, "dynamic": PORDynamic, "off": POROff, "none": POROff} {
		got, err := ParsePOR(s)
		if err != nil || got != want {
			t.Errorf("ParsePOR(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePOR("bogus"); err == nil {
		t.Error("ParsePOR(bogus) succeeded")
	}
	for s, want := range map[string]SearchMode{"": SearchDFS, "dfs": SearchDFS, "priority": SearchPriority} {
		got, err := ParseSearch(s)
		if err != nil || got != want {
			t.Errorf("ParseSearch(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseSearch("bogus"); err == nil {
		t.Error("ParseSearch(bogus) succeeded")
	}
	if PORDynamic.String() != "dynamic" || POROff.String() != "off" || PORStatic.String() != "static" {
		t.Error("PORMode.String misnames a mode")
	}
	if SearchPriority.String() != "priority" || SearchDFS.String() != "dfs" {
		t.Error("SearchMode.String misnames a mode")
	}
}
