package main

import "time"

// ratio is a/b, and 0 when the layer did no work on this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics assembles every per-layer metric from the spans of the
// traced pass, the probes, and the job-path figures. A layer the
// workload bypasses reads 0: that is the prediction "no change".
func layerMetrics(spans []span, probe, jobLayer map[string]float64) map[string]float64 {
	t := totalSpans(spans)
	ns := func(name string) float64 { return float64(t.dur[name]) }
	count := func(name string) float64 { return float64(t.counts[name]) }

	// Share of the traced pass's span time: self time of a layer's spans
	// over the duration of the roots they hang from.
	itemTime := ns("item")
	// Per job and per stand-alone item: the job spans are one per job,
	// the item spans one per item of the mix.
	meanJob := ratio(ns("job"), float64(t.n["job"]))
	meanItem := ratio(itemTime, float64(t.n["item"]))
	transitions := count("explore.transitions")
	steps := transitions + count("explore.replay_steps")
	inproc := count("explore.inproc_transitions")

	m := map[string]float64{
		"parser.parse_ns":      ns("parser.parse"),
		"parser.bytes_per_s":   ratio(count("parser.bytes"), ns("parser.parse")/float64(time.Second)),
		"sem.check_ns":         ns("sem.check"),
		"normalize.program_ns": ns("normalize.program"),
		"cfg.compile_ns":       ns("cfg.compile"),
		"dataflow.analyze_ns":  ns("dataflow.analyze"),
		"dataflow.ns_per_node": ratio(ns("dataflow.analyze"), count("cfg.nodes")),
		"core.close_ns":        ns("core.close"),
		"interp.resolve_ns":    ns("interp.resolve"),

		"interp.instrs_per_transition": ratio(count("interp.instrs"), steps),

		"explore.run_ns":                ns("explore.run"),
		"explore.replay_ratio":          ratio(count("explore.replay_steps"), transitions),
		"explore.ns_per_step":           ratio(ns("explore.run")+ns("dist.run"), steps),
		"explore.interp_share_est":      ratio(steps*probe["interp.step_ns"], ns("explore.run")+ns("dist.run")),
		"explore.allocs_per_transition": ratio(count("explore.mallocs"), inproc),
		"explore.bytes_per_transition":  ratio(count("explore.alloc_bytes"), inproc),
		"explore.worker_busy_share":     ratio(count("explore.worker_busy_ppm")/1e6, count("explore.worker_stats")),

		"statecache.hit_ratio": ratio(count("statecache.hits"), count("statecache.hits")+count("statecache.misses")),

		"dist.run_ns":         ns("dist.run"),
		"dist.overhead_ratio": ratio(ns("dist.run"), probe["dist.sequential_ns"]),

		"trace.dataflow_share": ratio(float64(t.self["dataflow.analyze"]), itemTime),
		"trace.explore_share":  ratio(float64(t.self["explore.run"]+t.self["dist.run"]), itemTime),
		// What a job's latency holds beyond its own compile + search.
		"jobs.overhead_share": ratio(meanJob-meanItem, meanJob),
	}
	// Counts that are reported as summed.
	for _, name := range []string{
		"cfg.nodes", "cfg.arcs", "dataflow.iterations",
		"core.nodes_closed", "core.nodes_eliminated", "core.toss_inserted",
		"interp.bytecode_compile_ns", "interp.instrs", "interp.hash.incremental", "interp.hash.full", "interp.forks",
		"explore.states", "explore.transitions", "explore.paths", "explore.replays", "explore.replay_steps",
		"explore.sleep_prunes", "explore.depth_hits", "explore.por.backtracks", "explore.por.dynamic_pruned",
		"explore.units.spilled", "explore.units.stolen", "explore.claims.replay", "explore.claims.snapshot",
		"explore.liveness.red_searches", "explore.liveness.red_states",
		"statecache.hits", "statecache.misses", "statecache.inserts", "statecache.reexpansions",
		"statecache.evictions", "statecache.entries", "statecache.bytes",
		"dist.batches", "dist.units_leased",
	} {
		m[name] = count(name)
	}
	for _, name := range probeMetrics {
		m[name] = probe[name]
	}
	for _, name := range jobLayerMetrics {
		m[name] = jobLayer[name]
	}
	return m
}

// probeMetrics are the per-layer metrics runProbes measures;
// jobLayerMetrics the ones tracedJobPair derives. Listed here so that a
// probe a workload has no use for still reports its 0.
var (
	probeMetrics = []string{
		"lexer.scan_ns", "lexer.tokens",
		"interp.step_ns", "interp.step_ns.slots",
		"interp.fingerprint_ns", "interp.fingerprint_bytes", "interp.statehash_ns", "interp.fork_ns",
		"explore.checkpoint.encode_ns", "explore.checkpoint.decode_ns", "explore.checkpoint.bytes",
		"statecache.visit_insert_ns", "statecache.visit_hit_ns",
		"dist.frame_write_ns", "dist.frame_read_ns", "dist.frame_bytes",
		"atomicio.write_ns", "jobs.parse_request_ns", "http.healthz_rtt_us", "cli.startup_ms",
	}
	jobLayerMetrics = []string{
		"jobs.inproc_latency_ms", "jobs.http_overhead_ms", "jobs.checkpoints_per_job", "jobs.attempts_per_job",
		"jobs.queue_depth_max", "jobs.rejected", "jobs.retries",
	}
)
