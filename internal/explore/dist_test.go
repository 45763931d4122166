package explore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"reclose/internal/cfg"
	"reclose/internal/progs"
)

// wireSites names the objects of wireUnits: a unit holds indices into
// these names, and on the wire they are the names.
var wireSites = &siteTable{objs: []string{"a", "b", "ch", "lock", "x"}}

// wireUnits builds one work unit of every shape the frontier produces:
// a root unit, a plain sibling-range unit with a sleep set, a toss unit, a continuation unit, and a dynamic-POR
// stack-continuation unit whose frames carry backtrack sets and seals.
func wireUnits() map[string]*workUnit {
	const a, b, ch, lock, x = 0, 1, 2, 3, 4
	return map[string]*workUnit{
		"root": {root: true},
		"siblings": {
			prefix:  []Decision{{Value: 1}, {Toss: true, Value: 0}, {Value: 2}},
			options: []int{0, 2, 3},
			objs:    []int32{-1, ch, lock},
			sleep:   sleepSet{{proc: 0, obj: ch}, {proc: 2, obj: lock}},
			from:    1,
		},
		"toss": {
			prefix:  []Decision{{Value: 0}},
			options: []int{0, 1, 2},
			toss:    true,
			from:    2,
		},
		"cont": {
			prefix: []Decision{{Value: 1}, {Value: 1}},
			cont:   true,
		},
		"dpor-stack": {
			prefix: []Decision{{Value: 0}, {Value: 2}},
			stack: []*entry{
				{
					options:   []int{0, 2},
					objs:      []int32{a, b},
					cursor:    1,
					enabled:   []int{0, 1, 2},
					enObjs:    []int32{a, x, b},
					backtrack: []int{0, 2},
					statics:   []int{0},
					dynamic:   true,
				},
				{
					isToss:  true,
					options: []int{0, 1},
					cursor:  0,
					sleep:   sleepSet{{proc: 1, obj: x}},
					sealed:  true,
				},
			},
		},
	}
}

// TestWireUnitRoundTrip is the distributed-encoding regression the wire
// format rides on: every unit shape — including stack-bearing
// dynamic-POR units — must survive serialize → JSON → deserialize
// bit-for-bit.
func TestWireUnitRoundTrip(t *testing.T) {
	for name, u := range wireUnits() {
		t.Run(name, func(t *testing.T) {
			su := wireSites.snapFromUnit(u)
			data, err := json.Marshal(su)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back snapUnit
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			got, err := wireSites.unitFromSnap(&back, 4)
			if err != nil {
				t.Fatalf("unitFromSnap: %v", err)
			}
			if !reflect.DeepEqual(got, u) {
				t.Errorf("unit changed across the wire:\n got %+v\nwant %+v", got, u)
			}
		})
	}
}

// resumeSlicer is the transport of these tests: a Slicer that runs the
// slice in this process with Resume, as a worker process does on the far
// side of internal/dist. So the driver under test is the one a
// distributed search runs — search with slice workers — and only the
// processes are missing.
type resumeSlicer struct {
	u   *cfg.Unit
	opt Options
	// take, when > 0, makes the slicer run only that many of a batch's
	// units (its newest) and hand the others back in the result's
	// remainder untouched: batches of that size, whatever the driver
	// claims.
	take int
	// lose, when non-nil, is asked once before the slice runs and once
	// after whether this is where it is lost.
	lose func() bool
	// onCall, when non-nil, runs first in every Slice call, and an error
	// it returns is Slice's answer.
	onCall func() error
}

func (s *resumeSlicer) Slice(ctx context.Context, batch *Snapshot, budget int64) (*Snapshot, StopCause, error) {
	if s.onCall != nil {
		if err := s.onCall(); err != nil {
			return nil, StopNone, err
		}
	}
	if s.lose != nil && s.lose() {
		return nil, StopNone, ErrSliceLost
	}
	b := *batch
	var held []snapUnit
	if s.take > 0 && len(b.Units) > s.take {
		held, b.Units = b.Units[:len(b.Units)-s.take], b.Units[len(b.Units)-s.take:]
	}
	opt := s.opt
	opt.MaxStates = budget
	rep, err := ResumeSlice(ctx, s.u, &b, opt)
	if err != nil {
		return nil, StopNone, err
	}
	for _, in := range rep.Samples {
		if in.Trace != nil {
			return nil, StopNone, fmt.Errorf("a slice rebuilt the trace of a %s sample", in.Kind)
		}
	}
	// A slice its context ended is dropped, as a killed process's is; and
	// a slice can be lost after all its work was done.
	if ctx.Err() != nil || (s.lose != nil && s.lose()) {
		return nil, StopNone, ErrSliceLost
	}
	ws := rep.WireSnapshot()
	ws.Units = append(append([]snapUnit(nil), held...), ws.Units...)
	return ws, rep.Cause, nil
}

// slicers returns n Slicers, the i-th made by mk.
func slicers(n int, mk func(i int) *resumeSlicer) []Slicer {
	out := make([]Slicer, n)
	for i := range out {
		out[i] = mk(i)
	}
	return out
}

// philOracle is the search the driver tests below cut up — three
// philosophers unreduced, 955 states and six deadlocks — and its
// uninterrupted report.
func philOracle(t *testing.T) (*cfg.Unit, Options, *Report) {
	t.Helper()
	closed := mustClose(t, progs.Philosophers(3))
	base := Options{POR: POROff, NoSleep: true, MaxIncidents: 1 << 20}
	oracle, err := Explore(closed, base)
	if err != nil {
		t.Fatalf("oracle Explore: %v", err)
	}
	return closed, base, oracle
}

// TestDistributeLostSlices is exactly-once without processes: slicers
// that lose a seeded third of their slices — before running them, or
// after, with the work done and the result discarded — still add up to
// the oracle's digest, nothing counted twice and nothing dropped.
func TestDistributeLostSlices(t *testing.T) {
	closed, base, oracle := philOracle(t)
	for _, n := range []int{1, 3} {
		var lost atomic.Int64
		rep, err := Distribute(context.Background(), closed, nil, base, slicers(n, func(i int) *resumeSlicer {
			rng := rand.New(rand.NewSource(int64(7 + i))) // one per slicer: a Slicer runs one slice at a time
			return &resumeSlicer{u: closed, opt: base, lose: func() bool {
				if rng.Intn(6) != 0 { // asked twice a call
					return false
				}
				lost.Add(1)
				return true
			}}
		}), 16)
		if err != nil {
			t.Fatalf("slicers=%d: Distribute: %v", n, err)
		}
		if lost.Load() == 0 {
			t.Fatalf("slicers=%d: no slice was lost; the test exercised nothing", n)
		}
		if got, want := digest(raced(rep), identical), digest(raced(oracle), identical); rep.Incomplete || got != want {
			t.Errorf("slicers=%d, %d slices lost: incomplete=%v, digest diverged from oracle:\n got:\n%s\nwant:\n%s",
				n, lost.Load(), rep.Incomplete, got, want)
		}
	}
}

// TestDistributeCheckpoints checks that a distributed checkpoint is the
// pause-in-place one: on either cadence, every snapshot the callback sees
// lists no unit twice — nothing is out on lease while it is taken — and
// resumes in-process to the oracle's totals, and the checkpointed run
// itself completes to them.
func TestDistributeCheckpoints(t *testing.T) {
	closed, base, oracle := philOracle(t)
	want := digest(raced(oracle), identical)
	for name, cadence := range map[string]Options{
		"every-paths": {CheckpointEveryPaths: 5},
		"every-1ms":   {CheckpointEvery: time.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			var snaps []*Snapshot
			opt := base
			opt.CheckpointEveryPaths, opt.CheckpointEvery = cadence.CheckpointEveryPaths, cadence.CheckpointEvery
			opt.Checkpoint = func(s *Snapshot) { snaps = append(snaps, s) }
			rep, err := Distribute(context.Background(), closed, nil, opt, slicers(3, func(int) *resumeSlicer {
				// A slice that takes a while, so that the 1 ms ticker gets to fire.
				return &resumeSlicer{u: closed, opt: base, onCall: func() error {
					time.Sleep(200 * time.Microsecond)
					return nil
				}}
			}), 8)
			if err != nil {
				t.Fatalf("Distribute: %v", err)
			}
			if got := digest(raced(rep), identical); rep.Incomplete || got != want {
				t.Errorf("checkpointed run: incomplete=%v, digest diverged from oracle:\n got:\n%s\nwant:\n%s", rep.Incomplete, got, want)
			}
			if len(snaps) == 0 {
				t.Fatalf("no checkpoint was taken")
			}
			for i, snap := range snaps {
				seen := map[string]bool{}
				for _, su := range snap.Units {
					key, _ := json.Marshal(su)
					if seen[string(key)] {
						t.Errorf("checkpoint %d lists a unit twice: %s", i, key)
					}
					seen[string(key)] = true
				}
				rest, err := Resume(closed, snap, base)
				if err != nil {
					t.Fatalf("checkpoint %d: Resume: %v", i, err)
				}
				if got := digest(raced(rest), identical); got != want {
					t.Errorf("checkpoint %d (%d states, %d units) resumed to a different digest:\n got:\n%s\nwant:\n%s",
						i, snap.Counters.States, len(snap.Units), got, want)
				}
			}
		})
	}
}

// TestDistributeMaxStates checks the one budget rule under slice workers:
// three of them reserving 8 states at a time stop at exactly MaxStates,
// and the cut resumes — distributed again, from the snapshot — to the
// uninterrupted totals.
func TestDistributeMaxStates(t *testing.T) {
	closed, base, oracle := philOracle(t)
	mk := func(int) *resumeSlicer { return &resumeSlicer{u: closed, opt: base} }
	for _, budget := range []int64{1, 37, 400} {
		opt := base
		opt.MaxStates = budget
		cut, err := Distribute(context.Background(), closed, nil, opt, slicers(3, mk), 8)
		if err != nil {
			t.Fatalf("budget %d: Distribute: %v", budget, err)
		}
		if !cut.Incomplete || cut.Cause != StopMaxStates || cut.States != budget {
			t.Fatalf("budget %d: incomplete=%v cause=%v states=%d, want a MaxStates cut at exactly the budget",
				budget, cut.Incomplete, cut.Cause, cut.States)
		}
		rest, err := Distribute(context.Background(), closed, cut.Snapshot(), base, slicers(3, mk), 8)
		if err != nil {
			t.Fatalf("budget %d: resumed Distribute: %v", budget, err)
		}
		if got, want := digest(raced(rest), identical), digest(raced(oracle), identical); rest.Incomplete || got != want {
			t.Errorf("budget %d: cut + resume diverged from the uninterrupted run:\n got:\n%s\nwant:\n%s", budget, got, want)
		}
	}
}

// TestDistributeFatalError checks that an error other than ErrSliceLost
// ends the search: Distribute returns it, and no goroutine of the search
// outlives the call.
func TestDistributeFatalError(t *testing.T) {
	closed, base, _ := philOracle(t)
	boom := errors.New("transport on fire")
	before := runtime.NumGoroutine()
	var calls atomic.Int64
	rep, err := Distribute(context.Background(), closed, nil, base, slicers(3, func(int) *resumeSlicer {
		return &resumeSlicer{u: closed, opt: base, onCall: func() error {
			if calls.Add(1) == 5 {
				return boom
			}
			return nil
		}}
	}), 8)
	if !errors.Is(err, boom) || rep != nil {
		t.Fatalf("Distribute = (%v, %v), want no report and the slicer's error", rep, err)
	}
	// Distribute waits for its workers, watcher and ticker before it
	// returns; the loop only allows the runtime a moment to retire them.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines before Distribute, %d after it failed", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDistributeCancelMidSlice cancels the search's context from inside a
// slice. The slice is dropped and its units go back as pending: the
// report is incomplete, cancelled, and resumes to the oracle's totals.
func TestDistributeCancelMidSlice(t *testing.T) {
	closed, base, oracle := philOracle(t)
	for _, n := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		rep, err := Distribute(ctx, closed, nil, base, slicers(n, func(int) *resumeSlicer {
			return &resumeSlicer{u: closed, opt: base, onCall: func() error {
				if calls.Add(1) == 5 {
					cancel()
				}
				return nil
			}}
		}), 8)
		cancel()
		if err != nil {
			t.Fatalf("slicers=%d: Distribute: %v", n, err)
		}
		if !rep.Incomplete || rep.Cause != StopCancelled || rep.States == 0 || rep.States >= oracle.States {
			t.Fatalf("slicers=%d: incomplete=%v cause=%v states=%d (oracle %d), want a cancelled cut in mid-search",
				n, rep.Incomplete, rep.Cause, rep.States, oracle.States)
		}
		rest, err := Resume(closed, rep.Snapshot(), base)
		if err != nil {
			t.Fatalf("slicers=%d: Resume: %v", n, err)
		}
		if got, want := digest(raced(rest), identical), digest(raced(oracle), identical); got != want {
			t.Errorf("slicers=%d: cancelled cut + resume diverged from the oracle:\n got:\n%s\nwant:\n%s", n, got, want)
		}
	}
}
