package explore

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/progs"
)

// wireSites names the objects of wireUnits: a unit holds indices into
// these names, and on the wire they are the names.
var wireSites = &siteTable{objs: []string{"a", "b", "ch", "lock", "x"}}

// wireUnits builds one work unit of every shape the frontier produces:
// a root unit, a plain sibling-range unit with a sleep set and a
// priority score, a toss unit, a continuation unit, and a dynamic-POR
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
			score:   3.5,
		},
		"toss": {
			prefix:  []Decision{{Value: 0}},
			options: []int{0, 1, 2},
			toss:    true,
			from:    2,
			score:   -1.25,
		},
		"cont": {
			prefix: []Decision{{Value: 1}, {Value: 1}},
			cont:   true,
			score:  0.5,
		},
		"dpor-stack": {
			prefix: []Decision{{Value: 0}, {Value: 2}},
			stack: []stackFrame{
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
					toss:    true,
					options: []int{0, 1},
					cursor:  0,
					sleep:   sleepSet{{proc: 1, obj: x}},
					sealed:  true,
				},
			},
			score: 7,
		},
	}
}

// TestWireUnitRoundTrip is the distributed-encoding regression the wire
// format rides on: every unit shape — including stack-bearing
// dynamic-POR units and priority scores — must survive
// serialize → JSON → deserialize bit-for-bit. The Score field was
// silently dropped by the original checkpoint encoding; this pins the
// fix.
func TestWireUnitRoundTrip(t *testing.T) {
	for name, u := range wireUnits() {
		t.Run(name, func(t *testing.T) {
			su := wireSites.snapFromUnit(u)
			data, err := json.Marshal(su)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back WireUnit
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

// TestWireUnitScoreFormat pins two properties of the Score fix: a
// zero-score unit encodes without a "score" key (static-search
// snapshots stay byte-identical to the pre-fix format), and a nonzero
// score appears and round-trips exactly.
func TestWireUnitScoreFormat(t *testing.T) {
	plain := wireSites.snapFromUnit(&workUnit{prefix: []Decision{{Value: 1}}, cont: true})
	data, err := json.Marshal(plain)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if strings.Contains(string(data), "score") {
		t.Errorf("zero-score unit encodes a score key: %s", data)
	}
	scored := wireSites.snapFromUnit(&workUnit{prefix: []Decision{{Value: 1}}, cont: true, score: 2.75})
	data, err = json.Marshal(scored)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(data), `"score":2.75`) {
		t.Errorf("scored unit does not carry its score: %s", data)
	}
}

// distDigest renders what the distributed merge must reproduce exactly
// from the in-process engine: every counter except Replays/ReplaySteps
// (slicing re-replays unit prefixes, the same allowance
// checkpoint/resume has), coverage, and every sample with decisions.
func distDigest(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "states=%d transitions=%d paths=%d maxdepth=%d\n",
		rep.States, rep.Transitions, rep.Paths, rep.MaxDepth)
	fmt.Fprintf(&b, "terminated=%d deadlocks=%d violations=%d traps=%d divergences=%d depth-hits=%d sleep-prunes=%d cache-prunes=%d internal-errors=%d\n",
		rep.Terminated, rep.Deadlocks, rep.Violations, rep.Traps, rep.Divergences,
		rep.DepthHits, rep.SleepPrunes, rep.CachePrunes, rep.InternalErrors)
	fmt.Fprintf(&b, "por: backtracks=%d sleep-blocked=%d pruned=%d\n",
		rep.PorBacktracks, rep.PorSleepBlocked, rep.PorDynamicPruned)
	fmt.Fprintf(&b, "coverage=%d/%d\n", rep.OpsCovered, rep.OpsTotal)
	for _, in := range rep.Samples {
		fmt.Fprintf(&b, "%s depth=%d msg=%q decisions=", in.Kind, in.Depth, in.Msg)
		for _, d := range in.Decisions {
			fmt.Fprintf(&b, "%s;", d)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// runSliced drives a whole search through the Merger exactly the way
// the distributed coordinator does — batches of wire units executed as
// bounded Resume slices, results folded back, leftover units returned
// to the frontier — but in-process, so the merge contract is testable
// without subprocess machinery.
func runSliced(t *testing.T, u *cfg.Unit, opt Options, batchSize int, sliceStates int64) *Report {
	t.Helper()
	m := NewMerger(u, opt)
	frontier := []WireUnit{m.Root()}
	for len(frontier) > 0 {
		n := batchSize
		if n > len(frontier) {
			n = len(frontier)
		}
		batch := frontier[:n]
		rest := append([]WireUnit(nil), frontier[n:]...)
		sliceOpt := opt
		sliceOpt.MaxStates = sliceStates
		rep, err := Resume(u, m.NewBatch(batch), sliceOpt)
		if err != nil {
			t.Fatalf("slice Resume: %v", err)
		}
		ws := rep.WireSnapshot()
		if ws == nil {
			t.Fatalf("slice report has no wire snapshot")
		}
		if err := m.Add(ws); err != nil {
			t.Fatalf("Merger.Add: %v", err)
		}
		frontier = append(rest, ws.Units...)
	}
	rep, err := m.Report(nil, StopNone, 0, nil)
	if err != nil {
		t.Fatalf("Merger.Report: %v", err)
	}
	if rep.Incomplete {
		t.Fatalf("sliced run reported incomplete with an empty frontier")
	}
	return rep
}

// TestMergerSliceEquivalence is the merge-contract core of the
// distributed design, checked without processes: cutting a search into
// bounded slices over serialized unit batches and merging the slice
// snapshots reproduces the sequential oracle's counters, coverage, and
// incident samples exactly (strict modes), across batch sizes and slice
// budgets that force mid-path cuts.
func TestMergerSliceEquivalence(t *testing.T) {
	cases := map[string]string{
		"deadlock-prone": progs.DeadlockProne,
		"philosophers-3": progs.Philosophers(3),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			closed := mustClose(t, src)
			base := Options{MaxIncidents: 1 << 20}
			oracle, err := Explore(closed, base)
			if err != nil {
				t.Fatalf("oracle Explore: %v", err)
			}
			want := distDigest(oracle)
			for _, batch := range []int{1, 3} {
				for _, slice := range []int64{7, 64} {
					rep := runSliced(t, closed, base, batch, slice)
					if got := distDigest(rep); got != want {
						t.Errorf("batch=%d slice=%d: sliced merge diverged from oracle:\n got:\n%s\nwant:\n%s",
							batch, slice, got, want)
					}
				}
			}
		})
	}
}

// TestMergerSliceEquivalenceDynamicPOR extends the slice contract to
// dynamic POR, where mid-path cuts produce stack-continuation units:
// the sliced search must find exactly the oracle's incident set (the
// same relaxation DPOR itself is held to).
func TestMergerSliceEquivalenceDynamicPOR(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	base := Options{POR: PORDynamic, MaxIncidents: 1 << 20}
	oracle, err := Explore(closed, Options{MaxIncidents: 1 << 20})
	if err != nil {
		t.Fatalf("oracle Explore: %v", err)
	}
	want := incidentSet(oracle)
	for _, slice := range []int64{9, 128} {
		rep := runSliced(t, closed, base, 2, slice)
		if got := incidentSet(rep); got != want {
			t.Errorf("slice=%d: dynamic-POR sliced incident set diverged:\n got:\n%s\nwant:\n%s",
				slice, got, want)
		}
	}
}
