package explore

import (
	"bytes"
	"encoding/json"
	"testing"

	"reclose/internal/interp"
)

// wireReport is a hand-built finalized report with every serialized
// field non-zero: each counter (the omitempty POR and liveness ones
// included), a livelock sample with its lasso split, a toss prefix, a
// unit with a sleep set, a dynamic-POR stack frame, and the cache
// summary. The trail counters and the sample traces are set too: no
// checkpoint carries them.
func wireReport() (*Report, []*workUnit) {
	rep := &Report{
		cov:      coverage{0x8001},
		procs:    2,
		sites:    &siteTable{bits: 64, objs: []string{"lock", "ch"}},
		cacheSum: &snapCache{Shards: 16, Entries: 2, Bytes: 300, Hits: 4, Misses: 5, Evictions: 6, stored: 7},
	}
	rep.States, rep.Transitions, rep.Paths, rep.Replays, rep.ReplaySteps = 1, 2, 3, 4, 5
	rep.MaxDepth = 6
	rep.Terminated, rep.Deadlocks, rep.Violations, rep.Traps, rep.Divergences = 7, 8, 9, 10, 11
	rep.DepthHits, rep.SleepPrunes, rep.CachePrunes, rep.InternalErrors = 12, 13, 14, 15
	rep.StatesAtFirstIncident = 16
	rep.PorBacktracks, rep.PorSleepBlocked, rep.PorDynamicPruned = 17, 18, 19
	rep.Livelocks, rep.RedSearches, rep.RedStates, rep.RedCut = 20, 21, 22, 23
	rep.TrailRestores, rep.TrailUndone, rep.TrailDrops = 24, 25, 26
	rep.Samples = []*Incident{
		{Kind: LeafDeadlock, Msg: "deadlock", Depth: 2, Decisions: []Decision{{Value: 1}, {Value: 0}}},
		{
			Kind: LeafLivelock, Msg: `no progress on "lock" & <ch>`, Depth: 3,
			Trace:      []interp.Event{{Proc: 1, Op: "lock", Object: "lock"}},
			Decisions:  []Decision{{Value: 0}, {Toss: true, Value: 1}, {Value: 1}},
			CycleStart: 1,
		},
	}
	units := []*workUnit{
		{root: true},
		{
			prefix: []Decision{{Toss: true, Value: 1}, {Value: 0}}, options: []int{0, 1}, objs: []int32{0, -1},
			sleep: sleepSet{{proc: 1, obj: 1}}, from: 1,
		},
		{prefix: []Decision{{Value: 1}}, options: []int{0, 1}, toss: true, cont: true, sleep: sleepSet{{proc: 0, obj: 0}}},
		{
			prefix: []Decision{{Value: 0}},
			sleep:  sleepSet{{proc: 0, obj: -1}},
			stack: []*entry{{
				options: []int{0, 1}, objs: []int32{0, 1}, cursor: 1, sleep: sleepSet{{proc: 1, obj: 1}},
				enabled: []int{0, 1}, enObjs: []int32{0, 1}, backtrack: []int{1}, statics: []int{0},
				sealed: true, dynamic: true,
			}, {isToss: true, options: []int{0, 1}}},
		},
	}
	return rep, units
}

// TestSnapshotWire pins the checkpoint encoding byte for byte. Every
// checkpoint file, -resume file and distributed frame is this encoding:
// a key moved, renamed or made omitempty breaks the ones already
// written. The golden must also decode and re-encode to itself.
func TestSnapshotWire(t *testing.T) {
	rep, units := wireReport()
	data, err := buildSnapshot(rep, units).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := json.Indent(&want, []byte(snapshotWireGolden), "", "  "); err != nil {
		t.Fatalf("golden: %v", err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		json.Compact(&got, data)
		t.Errorf("snapshot encoding changed:\n got %s\nwant %s", got.Bytes(), snapshotWireGolden)
	}
	back, err := DecodeSnapshot(want.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if again, err := back.Encode(); err != nil || !bytes.Equal(again, want.Bytes()) {
		t.Errorf("golden does not re-encode to itself (%v):\n%s", err, again)
	}
}

const snapshotWireGolden = `{"version":1,"processes":2,"site_bits":64,
"counters":{"states":1,"transitions":2,"paths":3,"replays":4,"replay_steps":5,"max_depth":6,"terminated":7,"deadlocks":8,"violations":9,"traps":10,"divergences":11,"depth_hits":12,"sleep_prunes":13,"cache_prunes":14,"internal_errors":15,"states_at_first_incident":16,"por_backtracks":17,"por_sleep_blocked":18,"por_dynamic_pruned":19,"livelocks":20,"red_searches":21,"red_states":22,"red_cut":23},
"coverage":"0180000000000000",
"samples":[{"kind":"deadlock","msg":"deadlock","depth":2,"decisions":[{"value":1},{"value":0}]},
 {"kind":"livelock","msg":"no progress on \"lock\" \u0026 \u003cch\u003e","depth":3,"decisions":[{"value":0},{"toss":true,"value":1},{"value":1}],"cycle_start":1}],
"units":[{"root":true},
 {"prefix":[{"toss":true,"value":1},{"value":0}],"options":[0,1],"objs":["lock",""],"sleep":{"1":"ch"},"from":1},
 {"prefix":[{"value":1}],"options":[0,1],"sleep":{"0":"lock"},"toss":true,"cont":true},
 {"prefix":[{"value":0}],"sleep":{"0":""},"stack":[
  {"options":[0,1],"objs":["lock","ch"],"cursor":1,"sleep":{"1":"ch"},"enabled":[0,1],"en_objs":["lock","ch"],"backtrack":[1],"statics":[0],"sealed":true,"dynamic":true},
  {"toss":true,"options":[0,1]}]}],
"cache":{"shards":16,"entries":2,"bytes":300,"hits":4,"misses":5,"evictions":6}}`
