package explore

import (
	"context"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"reclose/internal/lockserver"
	"reclose/internal/progs"
)

// TestResumeChain interrupts and resumes repeatedly — every hop explores
// a handful of paths, checkpoints, and aborts — until the search
// completes, then checks the final report against the uninterrupted
// baseline.
func TestResumeChain(t *testing.T) {
	closed := mustClose(t, progs.ProducerConsumer)
	base := Options{MaxIncidents: 1 << 20}
	baseline, err := Explore(closed, base)
	if err != nil {
		t.Fatalf("baseline Explore: %v", err)
	}
	want := digest(raced(baseline), identical)

	for _, workers := range []int{0, 2} {
		var snap *Snapshot
		var final *Report
		for hop := 0; ; hop++ {
			if hop > 2*int(baseline.Paths)+10 {
				t.Fatalf("workers=%d: resume chain did not converge after %d hops", workers, hop)
			}
			ctx, cancel := context.WithCancel(context.Background())
			opt := base
			opt.Workers = workers
			opt.CheckpointEveryPaths = 5
			var hopSnap *Snapshot
			opt.Checkpoint = func(s *Snapshot) {
				if hopSnap == nil {
					hopSnap = s
					cancel()
				}
			}
			var rep *Report
			var err error
			if snap == nil {
				rep, err = ExploreContext(ctx, closed, opt)
			} else {
				rep, err = ResumeContext(ctx, closed, snap, opt)
			}
			cancel()
			if err != nil {
				t.Fatalf("workers=%d hop %d: %v", workers, hop, err)
			}
			if !rep.Incomplete {
				final = rep
				break
			}
			if hopSnap == nil {
				t.Fatalf("workers=%d hop %d: incomplete without a snapshot", workers, hop)
			}
			// Round-trip every hop through the JSON encoding so the
			// serialization itself is under test.
			data, err := hopSnap.Encode()
			if err != nil {
				t.Fatalf("workers=%d hop %d: Encode: %v", workers, hop, err)
			}
			snap, err = DecodeSnapshot(data)
			if err != nil {
				t.Fatalf("workers=%d hop %d: DecodeSnapshot: %v", workers, hop, err)
			}
		}
		if got := digest(raced(final), identical); got != want {
			t.Errorf("workers=%d: chained result diverged:\n--- got ---\n%s--- want ---\n%s", workers, got, want)
		}
	}
}

// TestCheckpointWithoutInterrupt checks that periodic checkpoints of an
// undisturbed search are pure observation: the final report matches a
// checkpoint-free run, and every emitted snapshot is internally
// consistent and itself resumable to the same result. A checkpoint
// pauses the workers where they stand instead of draining them, so it
// shows in no counter: Replays equals the checkpoint-free run's at
// every worker count, and with at most one worker — where the order of
// the search is fixed — so does ReplaySteps. (With more, which worker
// claims which unit shifts with the pauses, and with it which prefixes
// are replayed.) The lock server is the case a checkpoint every 64
// paths used to cost the most: 1 897 drains, each one throwing the
// engines' stacks and snapshot pools away.
func TestCheckpointWithoutInterrupt(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		opt     Options
		every   int64
		workers []int
		// resumeStride thins the snapshots that are resumed: every
		// stride-th one, and the last.
		resumeStride int
	}{
		{"philosophers-3", progs.Philosophers(3), Options{MaxIncidents: 1 << 20}, 7, []int{0, 3}, 1},
		{"lockserver-c3-r2-d30", lockserver.Source(lockserver.Config{Clients: 3, Rounds: 2}),
			Options{MaxIncidents: 1 << 20, MaxDepth: 30}, 64, []int{0, 1, 2}, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			closed := mustClose(t, tc.src)
			baseline, err := Explore(closed, tc.opt)
			if err != nil {
				t.Fatalf("baseline Explore: %v", err)
			}
			want := digest(raced(baseline), identical)
			for _, workers := range tc.workers {
				opt := tc.opt
				opt.Workers = workers
				plain := baseline
				if workers != 0 {
					if plain, err = Explore(closed, opt); err != nil {
						t.Fatalf("workers=%d: checkpoint-free Explore: %v", workers, err)
					}
				}
				opt.CheckpointEveryPaths = tc.every
				var snaps []*Snapshot
				opt.Checkpoint = func(s *Snapshot) { snaps = append(snaps, s) }
				rep, err := Explore(closed, opt)
				if err != nil {
					t.Fatalf("workers=%d: Explore: %v", workers, err)
				}
				if rep.Incomplete {
					t.Fatalf("workers=%d: checkpointed run did not complete", workers)
				}
				if got := digest(raced(rep), identical); got != want {
					t.Errorf("workers=%d: checkpointed run diverged:\n--- got ---\n%s--- want ---\n%s", workers, got, want)
				}
				if rep.Replays != plain.Replays {
					t.Errorf("workers=%d: %d checkpoints moved Replays %d -> %d",
						workers, len(snaps), plain.Replays, rep.Replays)
				}
				if workers <= 1 && rep.ReplaySteps != plain.ReplaySteps {
					t.Errorf("workers=%d: %d checkpoints moved ReplaySteps %d -> %d",
						workers, len(snaps), plain.ReplaySteps, rep.ReplaySteps)
				}
				if len(snaps) == 0 {
					t.Fatalf("workers=%d: no checkpoints emitted (paths=%d)", workers, rep.Paths)
				}
				for i, s := range snaps {
					if (i+1)%tc.resumeStride != 0 && i != len(snaps)-1 {
						continue
					}
					final, err := Resume(closed, s, tc.opt)
					if err != nil {
						t.Fatalf("workers=%d snapshot %d: Resume: %v", workers, i, err)
					}
					if got := digest(raced(final), identical); got != want {
						t.Errorf("workers=%d: resume from snapshot %d diverged:\n--- got ---\n%s--- want ---\n%s",
							workers, i, got, want)
					}
				}
			}
		})
	}
}

// TestCancelSnapshotResume cancels a running search via its context,
// takes the remaining work from Report.Snapshot, and resumes it to
// completion: the combined result must match the uninterrupted run
// exactly (cancellation cuts land before a state is counted, so nothing
// is counted twice).
func TestCancelSnapshotResume(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	// Ablations off: the unreduced space (~1000 states) is large enough
	// that a cancellation at the 20th leaf always lands mid-search, even
	// against the sequential engine's 64-state polling granularity.
	base := Options{MaxIncidents: 1 << 20, POR: POROff, NoSleep: true}
	baseline, err := Explore(closed, base)
	if err != nil {
		t.Fatalf("baseline Explore: %v", err)
	}
	want := digest(raced(baseline), identical)
	for _, workers := range []int{0, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		opt := base
		opt.Workers = workers
		var leaves atomic.Int64
		opt.OnLeaf = func(LeafKind, []Decision) {
			if leaves.Add(1) == 20 {
				cancel()
			}
		}
		cut, err := ExploreContext(ctx, closed, opt)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: ExploreContext: %v", workers, err)
		}
		if !cut.Incomplete {
			t.Fatalf("workers=%d: cancelled search not Incomplete (paths=%d of %d)",
				workers, cut.Paths, baseline.Paths)
		}
		if cut.Cause != StopCancelled {
			t.Errorf("workers=%d: Cause = %s, want %s", workers, cut.Cause, StopCancelled)
		}
		snap := cut.Snapshot()
		if snap == nil {
			t.Fatalf("workers=%d: Incomplete report has no snapshot", workers)
		}
		final, err := Resume(closed, snap, base)
		if err != nil {
			t.Fatalf("workers=%d: Resume: %v", workers, err)
		}
		if final.Incomplete {
			t.Fatalf("workers=%d: resumed run did not complete", workers)
		}
		if got := digest(raced(final), identical); got != want {
			t.Errorf("workers=%d: cancel+resume result diverged:\n--- got ---\n%s--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestSnapshotValidation checks that structurally bad snapshots are
// rejected with an error instead of corrupting a resumed search.
func TestSnapshotValidation(t *testing.T) {
	snap, _ := cutOnce(t, mustClose(t, progs.DeadlockProne), Options{}, 1)
	if snap == nil {
		t.Fatal("no snapshot captured")
	}

	if _, err := DecodeSnapshot([]byte("{")); err == nil {
		t.Error("DecodeSnapshot accepted truncated JSON")
	}

	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	bad := strings.Replace(string(data), `"version": 1`, `"version": 99`, 1)
	if !strings.Contains(string(data), `"version": 1`) {
		t.Fatalf("encoded snapshot carries no version field:\n%s", data)
	}
	if _, err := DecodeSnapshot([]byte(bad)); err == nil {
		t.Error("DecodeSnapshot accepted version 99")
	}

	// A snapshot only resumes against the program that produced it.
	other := mustClose(t, progs.ProducerConsumer)
	if _, err := Resume(other, snap, Options{}); err == nil {
		t.Error("Resume accepted a snapshot from a different program")
	}
}

// TestStaleCheckpointRefused pins the checkpoint boundary of the integer
// numbering: the engine indexes arrays with object and process indices,
// so a unit naming an object the program does not declare, or a process
// it does not have, is refused by Resume — and by the distributed merge,
// which decodes the same units — with an error that names the unit and
// the field, while the checkpoint it was made from still resumes to the
// uninterrupted totals.
func TestStaleCheckpointRefused(t *testing.T) {
	src := progs.Philosophers(3)
	closed := mustClose(t, src)
	for _, por := range []PORMode{PORStatic, PORDynamic} {
		opt := Options{POR: por, MaxIncidents: 1 << 20}
		full, err := Explore(closed, opt)
		if err != nil {
			t.Fatalf("Explore: %v", err)
		}
		snap, _ := cutOnce(t, closed, opt, 3)
		if snap == nil {
			t.Fatalf("por=%s: no checkpoint", por)
		}
		good, err := snap.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		resumedRep, err := Resume(closed, snap, opt)
		if err != nil {
			t.Fatalf("por=%s: the good checkpoint does not resume: %v", por, err)
		}
		if got, want := digest(resumed(resumedRep), identical), digest(resumed(full), identical); got != want {
			t.Errorf("por=%s: resumed totals diverged:\n--- got ---\n%s--- want ---\n%s", por, got, want)
		}

		cases := []struct{ name, pattern, repl, want string }{
			{"undeclared objs name", `("objs": \[\s*)"fork\d"`, `${1}"spoon"`, `objs[0]: the program declares no object "spoon"`},
			{"option out of range", `("options": \[\s*)\d`, `${1}7`, `options[0]: process 7 out of range [0, 3)`},
		}
		if por == PORStatic {
			cases = append(cases, []struct{ name, pattern, repl, want string }{
				{"sleep key out of range", `("sleep": \{\s*)"\d"`, `${1}"99"`, `sleep: key "99" is not a process in [0, 3)`},
				{"undeclared sleep object", `("sleep": \{\s*"\d": )"fork\d"`, `${1}"spoon"`, `the program declares no object "spoon"`},
			}...)
		} else { // the stack-continuation unit's frames
			cases = append(cases, []struct{ name, pattern, repl, want string }{
				{"undeclared en_objs name", `("en_objs": \[\s*)"fork\d"`, `${1}"spoon"`, `frame 0: en_objs[0]: the program declares no object "spoon"`},
				{"negative enabled", `("enabled": \[\s*)\d`, `${1}-1`, `frame 0: enabled[0]: process -1 out of range [0, 3)`},
				{"backtrack out of range", `("backtrack": \[\s*)\d`, `${1}3`, `backtrack[0]: process 3 out of range [0, 3)`},
			}...)
		}
		for _, c := range cases {
			re := regexp.MustCompile(c.pattern)
			loc := re.FindIndex(good)
			if loc == nil {
				t.Errorf("por=%s %s: the checkpoint has nothing matching %s", por, c.name, c.pattern)
				continue
			}
			// Mutate the first match only: one stale field in one unit.
			bad := append(append(append([]byte(nil), good[:loc[0]]...), re.ReplaceAll(good[loc[0]:loc[1]], []byte(c.repl))...), good[loc[1]:]...)
			stale, err := DecodeSnapshot(bad)
			if err != nil {
				t.Errorf("por=%s %s: DecodeSnapshot: %v", por, c.name, err)
				continue
			}
			_, err = Resume(closed, stale, opt)
			if err == nil || !strings.Contains(err.Error(), "snapshot unit ") || !strings.Contains(err.Error(), c.want) {
				t.Errorf("por=%s %s: Resume error = %v, want one naming the unit and %q", por, c.name, err, c.want)
			}
			// The same units arrive at the distributed driver as what a
			// slice left over: it refuses the result, and the search fails.
			_, err = Distribute(context.Background(), closed, nil, opt, []Slicer{fixedSlicer{stale}}, 64)
			if err == nil || !strings.Contains(err.Error(), "slice result: ") || !strings.Contains(err.Error(), c.want) {
				t.Errorf("por=%s %s: Distribute error = %v, want one naming the slice result and %q", por, c.name, err, c.want)
			}
		}
	}
}

// TestNegativeCountersRefused: a checkpoint counts nothing below zero,
// and the search budgets against what it counts — resumed with "states":
// -100000 under MaxStates 50, a search would explore 100 050 fresh
// states. Resume, and the distributed merge of a slice result, refuse
// any negative counter with an error that names it.
func TestNegativeCountersRefused(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	snap, _ := cutOnce(t, closed, Options{}, 3)
	if snap == nil {
		t.Fatal("no checkpoint")
	}
	good, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	opt := Options{MaxStates: 50}
	for _, c := range []struct{ pattern, repl, want string }{
		{`"states": \d+`, `"states": -100000`, "snapshot counter states is -100000"},
		{`"max_depth": \d+`, `"max_depth": -1`, "snapshot counter max_depth is -1"},
		{`"counters": \{`, `"counters": {"red_cut": -2,`, "snapshot counter red_cut is -2"},
	} {
		bad, err := DecodeSnapshot(regexp.MustCompile(c.pattern).ReplaceAll(good, []byte(c.repl)))
		if err != nil {
			t.Errorf("%s: DecodeSnapshot: %v", c.repl, err)
			continue
		}
		if rep, err := Resume(closed, bad, opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Resume error = %v, want %q (report %v)", c.repl, err, c.want, rep)
		}
		_, err = Distribute(context.Background(), closed, nil, opt, []Slicer{fixedSlicer{bad}}, 64)
		if err == nil || !strings.Contains(err.Error(), "slice result: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Distribute error = %v, want one naming the slice result and %q", c.repl, err, c.want)
		}
	}
}

// fixedSlicer answers every slice with the same result.
type fixedSlicer struct{ result *Snapshot }

func (s fixedSlicer) Slice(context.Context, *Snapshot, int64) (*Snapshot, StopCause, error) {
	return s.result, StopNone, nil
}

// TestMaxStatesResumeEquivalence pins the reserve-then-credit budget
// discipline: a search cut by MaxStates counts exactly MaxStates
// states (never "up to one extra per engine"), its snapshot resumes
// without recounting anything, and a chain of growing budget hops
// reaches exactly the totals of an uninterrupted run — states,
// transitions, paths, leaf counters, coverage, and samples.
func TestMaxStatesResumeEquivalence(t *testing.T) {
	closed := mustClose(t, progs.ProducerConsumer)
	base := Options{MaxIncidents: 1 << 20}
	baseline, err := Explore(closed, base)
	if err != nil {
		t.Fatalf("baseline Explore: %v", err)
	}
	const step = 25
	if baseline.States <= step {
		t.Fatalf("model too small for budget cuts: %d states", baseline.States)
	}
	want := digest(raced(baseline), identical)

	for _, workers := range []int{0, 2, 4} {
		var snap *Snapshot
		var final *Report
		budget := int64(step)
		for hop := 0; ; hop++ {
			if hop > int(baseline.States)/step+10 {
				t.Fatalf("workers=%d: budget chain did not converge after %d hops", workers, hop)
			}
			opt := base
			opt.Workers = workers
			opt.MaxStates = budget
			var rep *Report
			var err error
			if snap == nil {
				rep, err = Explore(closed, opt)
			} else {
				rep, err = Resume(closed, snap, opt)
			}
			if err != nil {
				t.Fatalf("workers=%d hop %d: %v", workers, hop, err)
			}
			if rep.States > budget {
				t.Fatalf("workers=%d hop %d: states = %d overshoots the budget %d",
					workers, hop, rep.States, budget)
			}
			if !rep.Incomplete {
				final = rep
				break
			}
			if rep.Cause != StopMaxStates {
				t.Fatalf("workers=%d hop %d: Cause = %s, want %s",
					workers, hop, rep.Cause, StopMaxStates)
			}
			if rep.States != budget {
				t.Fatalf("workers=%d hop %d: cut run counted %d states, want exactly %d",
					workers, hop, rep.States, budget)
			}
			s := rep.Snapshot()
			if s == nil {
				t.Fatalf("workers=%d hop %d: Incomplete report has no snapshot", workers, hop)
			}
			data, err := s.Encode()
			if err != nil {
				t.Fatalf("workers=%d hop %d: Encode: %v", workers, hop, err)
			}
			snap, err = DecodeSnapshot(data)
			if err != nil {
				t.Fatalf("workers=%d hop %d: DecodeSnapshot: %v", workers, hop, err)
			}
			budget += step
		}
		if got := digest(raced(final), identical); got != want {
			t.Errorf("workers=%d: budget-chained result diverged:\n--- got ---\n%s--- want ---\n%s",
				workers, got, want)
		}
	}
}
