package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/dataflow"
	"reclose/internal/dist"
	"reclose/internal/explore"
	"reclose/internal/interp"
	"reclose/internal/normalize"
	"reclose/internal/obs"
	"reclose/internal/parser"
	"reclose/internal/sem"
)

// frontEnd runs the layers between source text and closed unit, one
// span per public call, in the order core.CompileSource and core.Close
// make them. reclose always closes the unit; verisoft and the daemon
// close only an open program.
func frontEnd(tr *tracer, root int, name, src string, alwaysClose bool) (*cfg.Unit, *core.Stats, error) {
	sp := tr.begin(root, "parser.parse", name)
	prog, err := parser.Parse([]byte(src))
	tr.end(sp, map[string]int64{"parser.bytes": int64(len(src))})
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}

	sp = tr.begin(root, "sem.check", name)
	_, err = sem.Check(prog)
	tr.end(sp, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("check: %w", err)
	}

	sp = tr.begin(root, "normalize.program", name)
	normalize.Program(prog)
	tr.end(sp, nil)

	sp = tr.begin(root, "sem.check", name)
	info, err := sem.Check(prog)
	tr.end(sp, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("check (normalized): %w", err)
	}

	sp = tr.begin(root, "cfg.compile", name)
	unit := cfg.CompileUnit(prog, info)
	err = unit.Validate()
	nodes, arcs := unit.Size()
	tr.end(sp, map[string]int64{"cfg.nodes": int64(nodes), "cfg.arcs": int64(arcs)})
	if err != nil {
		return nil, nil, fmt.Errorf("cfg: %w", err)
	}
	if !alwaysClose && !unit.IsOpen() {
		return unit, nil, nil
	}

	sp = tr.begin(root, "dataflow.analyze", name)
	res := dataflow.Analyze(unit)
	tr.end(sp, map[string]int64{"dataflow.iterations": int64(res.Iterations)})
	if err := res.Err(); err != nil {
		return nil, nil, err
	}

	sp = tr.begin(root, "core.close", name)
	closed, st, err := core.CloseAnalyzed(unit, res)
	var counts map[string]int64
	if err == nil {
		counts = map[string]int64{
			"core.nodes_closed":     int64(st.NodesClosed),
			"core.nodes_eliminated": int64(st.NodesEliminated),
			"core.toss_inserted":    int64(st.TossInserted),
		}
	}
	tr.end(sp, counts)
	return closed, st, err
}

// inProcess runs one item the way its CLI would, inside this process:
// the front end, then explore.run (or dist.run over worker processes of
// the built verisoft). With a tracer it records spans and gives the
// search an obs.Registry; without one it is the bare pass.
func inProcess(ctx context.Context, tr *tracer, verisoft string, it *runItem) (verdict, error) {
	root := tr.begin(noSpan, "item", it.Name)
	defer func() { tr.end(root, nil) }()

	unit, st, err := frontEnd(tr, root, it.Name, it.Src, it.Tool == toolReclose)
	if err != nil {
		return verdict{}, err
	}
	if it.Tool == toolReclose {
		return verdict{NodesOpen: int64(st.NodesOriginal), NodesClosed: int64(st.NodesClosed)}, nil
	}

	// Timed on its own because the search repeats it internally and
	// from outside the two cannot be told apart.
	sp := tr.begin(root, "interp.resolve", it.Name)
	_, err = interp.Resolve(unit)
	tr.end(sp, nil)
	if err != nil {
		return verdict{}, err
	}

	opt := it.Search.options()
	var reg *obs.Registry
	if tr != nil {
		reg = obs.New()
		opt.Obs = reg
	}
	var rep *explore.Report
	var before, after runtime.MemStats
	if it.Search.DistWorkers > 0 {
		sp = tr.begin(root, "dist.run", it.Name)
		rep, err = dist.Run(ctx, dist.Program{Source: it.Src}, opt, dist.Config{
			Workers: it.Search.DistWorkers,
			Command: []string{verisoft, "-worker-mode"},
		})
	} else {
		sp = tr.begin(root, "explore.run", it.Name)
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		rep, err = explore.ExploreContext(ctx, unit, opt)
		if tr != nil {
			runtime.ReadMemStats(&after)
		}
	}
	if err != nil {
		tr.end(sp, nil)
		return verdict{}, err
	}
	if tr != nil {
		tr.end(sp, searchCounts(rep, reg, it.Search, &before, &after))
	}
	return reportVerdict(rep), nil
}

// searchCounts reads, at the end of a search, what the report and the
// registry counted.
func searchCounts(rep *explore.Report, reg *obs.Registry, s search, before, after *runtime.MemStats) map[string]int64 {
	c := map[string]int64{
		"explore.states":                rep.States,
		"explore.transitions":           rep.Transitions,
		"explore.paths":                 rep.Paths,
		"explore.replays":               rep.Replays,
		"explore.replay_steps":          rep.ReplaySteps,
		"explore.sleep_prunes":          rep.SleepPrunes,
		"explore.depth_hits":            rep.DepthHits,
		"explore.por.backtracks":        rep.PorBacktracks,
		"explore.por.dynamic_pruned":    rep.PorDynamicPruned,
		"explore.liveness.red_searches": rep.RedSearches,
		"explore.liveness.red_states":   rep.RedStates,

		"explore.units.spilled":   reg.Counter(explore.MetricUnitsSpilled).Load(),
		"explore.units.stolen":    reg.Counter(explore.MetricUnitsStolen).Load(),
		"explore.claims.replay":   reg.Counter(explore.MetricClaimsReplay).Load(),
		"explore.claims.snapshot": reg.Counter(explore.MetricClaimsSnapshot).Load(),

		"interp.instrs":              reg.Counter(explore.MetricInterpInstrs).Load(),
		"interp.hash.incremental":    reg.Counter(explore.MetricInterpHashIncr).Load(),
		"interp.hash.full":           reg.Counter(explore.MetricInterpHashFull).Load(),
		"interp.forks":               reg.Counter(explore.MetricInterpForks).Load(),
		"interp.bytecode_compile_ns": reg.Gauge(explore.MetricInterpCompileNanos).Load(),

		"statecache.hits":         reg.Counter(explore.MetricCacheHits).Load(),
		"statecache.misses":       reg.Counter(explore.MetricCacheMisses).Load(),
		"statecache.inserts":      reg.Counter(explore.MetricCacheInserts).Load(),
		"statecache.reexpansions": reg.Counter(explore.MetricCacheReexpands).Load(),
		"statecache.evictions":    reg.Counter(explore.MetricCacheEvictions).Load(),
		"statecache.entries":      reg.Gauge(explore.MetricCacheEntries).Load(),
		"statecache.bytes":        reg.Gauge(explore.MetricCacheBytes).Load(),

		"dist.batches":      reg.Counter(dist.MetricBatches).Load(),
		"dist.units_leased": reg.Counter(dist.MetricUnitsLeased).Load(),
	}
	if s.DistWorkers == 0 {
		// In-process searches only: a distributed one allocates in its
		// worker processes, out of this process's sight.
		c["explore.inproc_transitions"] = rep.Transitions
		c["explore.mallocs"] = int64(after.Mallocs - before.Mallocs)
		c["explore.alloc_bytes"] = int64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, ws := range rep.WorkerStats {
		c["explore.worker_busy_ppm"] += int64(ws.Utilization * 1e6)
		c["explore.worker_stats"]++
	}
	return c
}

// inProcessPass runs every item once in seeded order and checks every
// verdict against its known answer.
func inProcessPass(ctx context.Context, tr *tracer, e *env, rng *rand.Rand, r *runDoc) (time.Duration, error) {
	start := time.Now()
	for _, i := range rng.Perm(len(e.items)) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		it := &e.items[i]
		r.Attempted++
		got, err := inProcess(ctx, tr, e.bin[toolVerisoft], it)
		if err != nil {
			r.Failed++
			r.problem("%s: %v", it.Name, err)
			continue
		}
		if err := it.Want.check(got); err != nil {
			r.Mistaken++
			r.problem("%s: %v", it.Name, err)
		}
	}
	return time.Since(start), nil
}

// runTraced is the per-layer run: the pass is executed in-process in
// pairs — bare, then with spans and Options.Obs — until the time is
// used; the ratio of the two is the tracing overhead. The spans of the
// last traced pass, the probes and the counts give every per-layer
// metric. End-to-end metrics are never taken from here.
func runTraced(ctx context.Context, root, scratch string, wl *workload, seed int64, seconds float64) (*runDoc, error) {
	r := &runDoc{Workload: wl.Name, Seed: seed, Traced: true, Seconds: seconds, Metrics: make(map[string]metricValue)}
	e, err := setUp(ctx, root, scratch, wl, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.tearDown()

	rng := rand.New(rand.NewSource(seed))
	budget := time.Duration(seconds * float64(time.Second))
	var overhead sample
	var tr *tracer
	var layer map[string]float64
	var host hostClock
	var longest time.Duration
	start := time.Now()
	for pass := 0; pass == 0 || !timeUp(start, longest, budget); pass++ {
		passStart := time.Now()
		host.tick()
		tr = newTracer()
		var bare, traced time.Duration
		if wl.tool() == toolJob {
			bare, traced, layer, err = tracedJobPair(ctx, tr, e, wl, rng, r)
		} else {
			order := rng.Int63() // the traced pass repeats the bare pass's order
			if bare, err = inProcessPass(ctx, nil, e, rand.New(rand.NewSource(order)), r); err == nil {
				traced, err = inProcessPass(ctx, tr, e, rand.New(rand.NewSource(order)), r)
			}
		}
		if err != nil {
			return nil, err
		}
		overhead = append(overhead, traced.Seconds()/bare.Seconds()-1)
		r.Passes++
		longest = max(longest, time.Since(passStart))
	}

	probed, err := runProbes(ctx, tr, e, wl, seed)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	spans := tr.finish()
	for name, v := range layerMetrics(spans, probed, layer) {
		r.Metrics[name] = metricValue{Value: v, Q1: v, Q3: v, N: 1}
	}
	r.set("trace.overhead_share", overhead)
	// Per-layer timings are reported as measured. host.slowness says
	// what the host was doing meanwhile: divide by it to compare two
	// traced runs taken in different spells.
	slow := make(sample, len(host.samples))
	for i, ms := range host.samples {
		slow[i] = ms / kernelNominalMS
	}
	r.set("host.slowness", slow)

	r.Trace = filepath.Join(scratch, "trace-"+wl.Name+".jsonl")
	if err := writeTrace(r.Trace, spans); err != nil {
		return nil, err
	}
	r.settle()
	return r, nil
}
