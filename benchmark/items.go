package main

import (
	"fmt"
	"strconv"

	"reclose/internal/explore"
	"reclose/internal/fiveess"
	"reclose/internal/jobs"
	"reclose/internal/leaderelect"
	"reclose/internal/lockserver"
	"reclose/internal/progs"
	"reclose/internal/synth"
)

// programs maps a program name to its generator. The names carry the
// parameters, so a row can never silently change meaning.
var programs = map[string]func() string{
	"synth-straight-n20000":  func() string { return synth.Program(synth.StraightLine, 20000) },
	"synth-branchy-n20000":   func() string { return synth.Program(synth.Branchy, 20000) },
	"synth-loopy-n6000":      func() string { return synth.Program(synth.Loopy, 6000) },
	"synth-manyprocs-n50000": func() string { return synth.Program(synth.ManyProcs, 50000) },
	"5ess-h16-l3-f2000-c8-stub": func() string {
		return fiveess.Source(fiveess.Config{Handlers: 16, Lines: 3, Features: 2000, Chain: 8, WithStub: true})
	},
	"5ess-small":        func() string { return fiveess.Source(fiveess.Scale("small")) },
	"5ess-medium":       func() string { return fiveess.Source(fiveess.Scale("medium")) },
	"5ess-large":        func() string { return fiveess.Source(fiveess.Scale("large")) },
	"phil-5":            func() string { return progs.Philosophers(5) },
	"phil-7":            func() string { return progs.Philosophers(7) },
	"lock-c4-r2":        func() string { return lockserver.Source(lockserver.Config{Clients: 4, Rounds: 2}) },
	"lock-c3-r2-greedy": func() string { return lockserver.Source(lockserver.Config{Clients: 3, Rounds: 2, GreedyClient: true}) },
	"leader-n3-seeded":  func() string { return leaderelect.Source(leaderelect.Config{Nodes: 3, SeedLivelock: true}) },
	"leader-n6-seeded":  func() string { return leaderelect.Source(leaderelect.Config{Nodes: 6, SeedLivelock: true}) },
	"leader-n6":         func() string { return leaderelect.Source(leaderelect.Config{Nodes: 6}) },
	// The floor under every verisoft item: one process, one send.
	"one-send": func() string { return "chan c[1];\nproc main() {\n    send(c, 1);\n}\nprocess main;\n" },
}

// search is how one item is explored. It is the single description from
// which the CLI flags (untraced run), the explore.Options (traced run)
// and the job request (daemon) are derived, so the three cannot drift.
type search struct {
	Depth         int
	MaxStates     int64
	Dynamic       bool // -por dynamic
	StateCache    bool
	CacheMem      int64
	Liveness      bool
	Workers       int
	SnapshotSpill bool
	DistWorkers   int
}

func (s search) args() []string {
	var a []string
	if s.Depth > 0 {
		a = append(a, "-depth", strconv.Itoa(s.Depth))
	}
	if s.MaxStates > 0 {
		a = append(a, "-max-states", strconv.FormatInt(s.MaxStates, 10))
	}
	if s.Dynamic {
		a = append(a, "-por", "dynamic")
	}
	if s.StateCache {
		a = append(a, "-state-cache")
	}
	if s.CacheMem > 0 {
		a = append(a, "-cache-mem", strconv.FormatInt(s.CacheMem, 10))
	}
	if s.Liveness {
		a = append(a, "-liveness")
	}
	if s.Workers > 0 {
		a = append(a, "-workers", strconv.Itoa(s.Workers))
	}
	if s.SnapshotSpill {
		a = append(a, "-snapshot-spill")
	}
	if s.DistWorkers > 0 {
		a = append(a, "-dist-workers", strconv.Itoa(s.DistWorkers))
	}
	return a
}

// options mirrors cmd/verisoft's flag-to-Options mapping, including its
// default of 4 incident samples.
func (s search) options() explore.Options {
	opt := explore.Options{
		MaxDepth:      s.Depth,
		MaxStates:     s.MaxStates,
		StateCache:    s.StateCache,
		MaxCacheBytes: s.CacheMem,
		Liveness:      s.Liveness,
		Workers:       s.Workers,
		SnapshotSpill: s.SnapshotSpill,
		MaxIncidents:  4,
	}
	if s.Dynamic {
		opt.POR = explore.PORDynamic
	}
	return opt
}

// request is the daemon's submission document for src; of the search
// only liveness has a job field the mix uses.
func (s search) request(src string) jobs.Request {
	return jobs.Request{Source: src, Liveness: s.Liveness}
}

// Tools an item can run through.
const (
	toolReclose  = "reclose"
	toolVerisoft = "verisoft"
	toolJob      = "job" // a verisoftd job
)

// item is one row of a workload: a program and how it is run.
type item struct {
	Name   string // row name; the key into expected.json
	Prog   string // key into programs (or a tail program of the run)
	Tool   string
	Search search
	// Want is the known answer of an item that expected.json does not
	// carry: the smoke test's shrunken table records its answers inline.
	Want *verdict
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name  string
	Items []item
	// Tail, when set, appends the seeded tail: tailSize random programs,
	// run through Tool with TailSearch.
	Tail       bool
	TailSearch search
	// Daemon-only: untimed warm-up jobs, and how many times a timed
	// batch cycles through the mix.
	Warmup, Cycles int
}

func (w *workload) tool() string { return w.Items[0].Tool }

const (
	tailSize = 8
	// Concurrency of every load source: the host has two cores.
	clients = 2
)

func recloseItem(prog string) item {
	return item{Name: prog, Prog: prog, Tool: toolReclose}
}

func vsItem(prog, suffix string, s search) item {
	return item{Name: prog + "." + suffix, Prog: prog, Tool: toolVerisoft, Search: s}
}

// workloads is the benchmark. README.md says why each workload and item
// is here; BENCHMARK.json carries the one-line version.
var workloads = []workload{
	{
		Name: "close_scale",
		Items: []item{
			recloseItem("synth-straight-n20000"),
			recloseItem("synth-branchy-n20000"),
			recloseItem("synth-loopy-n6000"),
			recloseItem("synth-manyprocs-n50000"),
			recloseItem("5ess-h16-l3-f2000-c8-stub"),
		},
	},
	{
		Name: "explore_stateless",
		Items: []item{
			vsItem("5ess-medium", "static.d28", search{Depth: 28}),
			vsItem("5ess-medium", "dynamic.d40", search{Depth: 40, Dynamic: true}),
			vsItem("5ess-large", "static.d500.s200000", search{Depth: 500, MaxStates: 200000}),
			vsItem("phil-7", "static", search{}),
		},
		Tail: true,
	},
	{
		Name: "explore_stateful",
		Items: []item{
			vsItem("lock-c4-r2", "cache", search{StateCache: true}),
			vsItem("5ess-medium", "cache.d30", search{StateCache: true, Depth: 30}),
			vsItem("lock-c4-r2", "cache-mem8MiB.s200000", search{StateCache: true, CacheMem: 8 << 20, MaxStates: 200000}),
			vsItem("lock-c3-r2-greedy", "cache.liveness.d200", search{StateCache: true, Liveness: true, Depth: 200}),
			vsItem("leader-n6-seeded", "cache.liveness", search{StateCache: true, Liveness: true}),
			vsItem("leader-n6", "cache.liveness", search{StateCache: true, Liveness: true}),
		},
		Tail:       true,
		TailSearch: search{StateCache: true},
	},
	{
		Name: "explore_parallel",
		Items: []item{
			vsItem("5ess-medium", "static.d26.workers2", search{Depth: 26, Workers: 2}),
			vsItem("5ess-medium", "static.d26.workers2-snapshot", search{Depth: 26, Workers: 2, SnapshotSpill: true}),
			vsItem("5ess-medium", "static.d26.dist2", search{Depth: 26, DistWorkers: 2}),
		},
	},
	{
		Name: "daemon_jobs",
		Items: []item{
			{Name: "5ess-small.job", Prog: "5ess-small", Tool: toolJob},
			{Name: "phil-5.job", Prog: "phil-5", Tool: toolJob},
			{Name: "leader-n3-seeded.job.liveness", Prog: "leader-n3-seeded", Tool: toolJob, Search: search{Liveness: true}},
		},
		Tail:   true,
		Warmup: 100,
		Cycles: 25,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
