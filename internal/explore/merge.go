package explore

// partial is one share of a search's result — an engine's, a slice
// worker's, a restored snapshot's, the accumulator's own: counters and
// incident samples in rep, and the sites covered.
type partial struct {
	rep     *Report
	covered coverage
}

// fold adds q to p. Every counter is a plain sum, coverage bitmaps are
// ORed, and incident samples are pooled (finalize re-sorts them under the
// same deterministic order each engine maintained locally) — so for a
// complete search the merged report is identical regardless of worker
// count, scheduling, or how many times the search was checkpointed and
// resumed.
func (p partial) fold(q partial) {
	p.rep.add(&q.rep.Counters)
	p.covered.or(q.covered)
	p.rep.Samples = append(p.rep.Samples, q.rep.Samples...)
}

// accum accumulates the partial results of one search — its workers', a
// restored snapshot's — into one Report.
type accum struct {
	opt   Options
	sites *siteTable
	procs int
	partial
}

func newAccum(opt Options, sites *siteTable, procs int) *accum {
	return &accum{opt: opt, sites: sites, procs: procs,
		partial: partial{rep: &Report{}, covered: newCoverage(sites)}}
}

// clone returns an independent copy, used to assemble mid-run snapshots
// without disturbing the live accumulator.
func (a *accum) clone() *accum {
	b := newAccum(a.opt, a.sites, a.procs)
	b.fold(a.partial)
	return b
}

// add sums r's tallies into t.
func (t *Counters) add(r *Counters) {
	t.States += r.States
	t.Transitions += r.Transitions
	t.Paths += r.Paths
	t.Replays += r.Replays
	t.ReplaySteps += r.ReplaySteps
	t.TrailRestores += r.TrailRestores
	t.TrailUndone += r.TrailUndone
	t.TrailDrops += r.TrailDrops
	if r.MaxDepth > t.MaxDepth {
		t.MaxDepth = r.MaxDepth
	}
	t.Terminated += r.Terminated
	t.Deadlocks += r.Deadlocks
	t.Violations += r.Violations
	t.Traps += r.Traps
	t.Divergences += r.Divergences
	t.DepthHits += r.DepthHits
	t.SleepPrunes += r.SleepPrunes
	t.CachePrunes += r.CachePrunes
	t.Livelocks += r.Livelocks
	t.RedSearches += r.RedSearches
	t.RedStates += r.RedStates
	t.RedCut += r.RedCut
	t.RedSteps += r.RedSteps
	t.PorBacktracks += r.PorBacktracks
	t.PorSleepBlocked += r.PorSleepBlocked
	t.PorDynamicPruned += r.PorDynamicPruned
	t.InternalErrors += r.InternalErrors
	if r.StatesAtFirstIncident > 0 &&
		(t.StatesAtFirstIncident == 0 || r.StatesAtFirstIncident < t.StatesAtFirstIncident) {
		t.StatesAtFirstIncident = r.StatesAtFirstIncident
	}
}

// finalize produces the merged Report. Each engine kept its MaxIncidents
// best samples under sampleLess, so the global best MaxIncidents are all
// present in the union.
func (a *accum) finalize(workers int, stats []WorkerStat) *Report {
	rep := *a.rep
	rep.Workers = workers
	rep.WorkerStats = stats
	rep.OpsCovered = a.covered.count()
	rep.OpsTotal = a.sites.total
	samples := append([]*Incident(nil), a.rep.Samples...)
	sortSamples(samples)
	samples = dedupeSamples(samples)
	if len(samples) > a.opt.MaxIncidents {
		samples = samples[:a.opt.MaxIncidents]
	}
	rep.Samples = samples
	rep.cov = a.covered
	rep.procs = a.procs
	rep.sites = a.sites
	return &rep
}

// dedupeSamples removes adjacent duplicates (same kind, message, depth,
// and decision sequence) from a sorted sample list. Duplicates cannot
// arise within one search — every path has a unique decision sequence —
// but a stale or hand-edited snapshot could replay one, and the merge
// must stay a set union.
func dedupeSamples(s []*Incident) []*Incident {
	out := s[:0]
	for _, in := range s {
		if n := len(out); n > 0 {
			p := out[n-1]
			if p.Kind == in.Kind && p.Msg == in.Msg && p.Depth == in.Depth &&
				compareDecisions(p.Decisions, in.Decisions) == 0 {
				continue
			}
		}
		out = append(out, in)
	}
	return out
}
