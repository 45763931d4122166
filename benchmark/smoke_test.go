package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// smokeWorkloads is the production table shrunk to items that take
// milliseconds, so that every workload can be driven through the real
// code path — build, cold processes, daemon, in-process traced pair,
// probes — inside the unit-test budget. Each keeps the shape of the
// workload it stands for: the same tools, the same kinds of search.
var smokeWorkloads = []workload{
	{
		Name: "close_scale",
		Items: []item{
			{Name: "5ess-small", Prog: "5ess-small", Tool: toolReclose, Want: &verdict{NodesOpen: 112, NodesClosed: 103}},
			{Name: "leader-n3-seeded", Prog: "leader-n3-seeded", Tool: toolReclose, Want: &verdict{NodesOpen: 76, NodesClosed: 76}},
		},
	},
	{
		Name: "explore_stateless",
		Items: []item{
			{Name: "phil-5.static", Prog: "phil-5", Tool: toolVerisoft, Want: &verdict{Exit: 3, States: 1425, Transitions: 1078, Paths: 347, Deadlocks: 1}},
			{Name: "5ess-small.dynamic", Prog: "5ess-small", Tool: toolVerisoft, Search: search{Dynamic: true}, Want: &verdict{States: 1185, Transitions: 977, Paths: 208}},
		},
		Tail: true,
	},
	{
		Name: "explore_stateful",
		Items: []item{
			{Name: "5ess-small.cache", Prog: "5ess-small", Tool: toolVerisoft, Search: search{StateCache: true}, Want: &verdict{States: 257, Transitions: 165, Paths: 92}},
			{Name: "leader-n3-seeded.cache.liveness", Prog: "leader-n3-seeded", Tool: toolVerisoft, Search: search{StateCache: true, Liveness: true}, Want: &verdict{Exit: 3, States: 193, Transitions: 153, Paths: 40, Livelocks: 7}},
		},
		Tail:       true,
		TailSearch: search{StateCache: true},
	},
	{
		Name: "explore_parallel",
		Items: []item{
			{Name: "5ess-small.workers2", Prog: "5ess-small", Tool: toolVerisoft, Search: search{Workers: 2}, Want: &verdict{States: 1729, Transitions: 1393, Paths: 336}},
			{Name: "5ess-small.workers2-snapshot", Prog: "5ess-small", Tool: toolVerisoft, Search: search{Workers: 2, SnapshotSpill: true}, Want: &verdict{States: 1729, Transitions: 1393, Paths: 336}},
			{Name: "5ess-small.dist2", Prog: "5ess-small", Tool: toolVerisoft, Search: search{DistWorkers: 2}, Want: &verdict{States: 1729, Transitions: 1393, Paths: 336}},
		},
	},
	{
		// The daemon's production items are already small; only the
		// volume shrinks.
		Name:   "daemon_jobs",
		Items:  workloads[4].Items,
		Tail:   true,
		Warmup: 4,
		Cycles: 1,
	},
}

// TestSmoke drives every workload end to end and traced, and checks
// that each run is correct and yields every metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and starts processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := range smokeWorkloads {
		wl := &smokeWorkloads[i]
		if wl.Name != workloads[i].Name {
			t.Fatalf("smoke table row %d is %s, production row is %s", i, wl.Name, workloads[i].Name)
		}
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			// One set-up (runEndToEnd repeats it, for the median), one
			// pass: seconds = 0 stops after the first.
			var host hostClock
			host.tick()
			start := time.Now()
			e, err := setUpEndToEnd(ctx, root, t.TempDir(), wl, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer e.tearDown()
			r, err := runPasses(ctx, e, &host, sample{time.Since(start).Seconds()}, wl, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, r, spec.EndToEnd)
			for _, d := range spec.EndToEnd {
				if r.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %g; they are chosen never to be 0", d.Name, r.Metrics[d.Name].Value)
				}
			}
			if wl.Name != "close_scale" && r.TransitionsTotal == 0 {
				t.Error("transitions_total = 0 on a workload that explores")
			}
		})
		t.Run(wl.Name+"/traced", func(t *testing.T) {
			t.Parallel()
			r, err := runTraced(context.Background(), root, t.TempDir(), wl, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, r, spec.PerLayer)
			// More than half on the full-size items (README records the
			// shares); on these millisecond items only "it was measured".
			if lead := leadingShare(wl.Name); r.Metrics[lead].Value <= 0 {
				t.Errorf("%s = %g: the workload's leading layer was not measured", lead, r.Metrics[lead].Value)
			}
			checkTrace(t, r.Trace)
		})
	}
}

// leadingShare names the metric that says how much of the traced pass
// the workload's leading layer took.
func leadingShare(workload string) string {
	switch workload {
	case "close_scale":
		return "trace.dataflow_share"
	case "daemon_jobs":
		return "jobs.overhead_share"
	}
	return "trace.explore_share"
}

func checkRun(t *testing.T, r *runDoc, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Attempted == 0 || r.Failed != 0 || r.Mistaken != 0 {
		t.Errorf("run not correct: attempted %d, failed %d, mistaken %d, problems %q", r.Attempted, r.Failed, r.Mistaken, r.Problems)
	}
	line, err := resultLine(r, defs)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &parsed); err != nil {
		t.Fatalf("result line is not JSON: %v\n%s", err, line)
	}
	if len(parsed.Metrics) != len(defs) || !parsed.Correct || parsed.Attempted != r.Attempted {
		t.Errorf("result line has %d metrics (want %d), correct=%t, attempted=%d", len(parsed.Metrics), len(defs), parsed.Correct, parsed.Attempted)
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	roots, n := 0, 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %d: %v", n, err)
		}
		if s.ID != n || s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Fatalf("trace line %d: bad span %+v", n, s)
		}
		if s.Parent == noSpan {
			roots++
		}
		n++
	}
	if n == 0 || roots == 0 {
		t.Errorf("trace has %d spans, %d roots", n, roots)
	}
}
