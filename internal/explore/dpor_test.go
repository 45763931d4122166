package explore

import (
	"context"
	"testing"

	"reclose/internal/fiveess"
	"reclose/internal/progs"
)

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
		// The transitions of EXPERIMENTS.md E13's rows, static and
		// dynamic; 0 leaves them unpinned.
		static, dynamic int64
	}{
		{"philosophers-4", progs.Philosophers(4), Options{}, 0, 0},
		{"philosophers-6", progs.Philosophers(6), Options{}, 4057, 1790},
		{"fiveess-medium-d20", fiveess.Source(fiveess.Scale("medium")), Options{MaxDepth: 20}, 0, 0},
		{"fiveess-medium-d30", fiveess.Source(fiveess.Scale("medium")), Options{MaxDepth: 30}, 220939, 15080},
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
			if got, want := digest(dynamic, sameIncidents), digest(static, sameIncidents); got != want {
				t.Errorf("incident set diverged:\n--- dynamic ---\n%s\n--- static ---\n%s", got, want)
			}
			if dynamic.PorBacktracks == 0 {
				t.Error("dynamic search inserted no backtrack points — nothing was dynamic about it")
			}
			if c.static != 0 && (static.Transitions != c.static || dynamic.Transitions != c.dynamic) {
				t.Errorf("transitions static %d dynamic %d, E13 says %d and %d",
					static.Transitions, dynamic.Transitions, c.static, c.dynamic)
			}
		})
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
			want := digest(full, sameIncidents)
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
				if got := digest(final, sameIncidents); got != want {
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
	if PORDynamic.String() != "dynamic" || POROff.String() != "off" || PORStatic.String() != "static" {
		t.Error("PORMode.String misnames a mode")
	}
}
