package explore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/interp"
	"reclose/internal/leaderelect"
	"reclose/internal/lockserver"
	"reclose/internal/obs"
	"reclose/internal/progs"
	"reclose/internal/randprog"
)

// This file is the conformance lattice. Whatever the configuration, a
// search owes the same answer; only the cost may change. A cell is a
// program, an option set and a driver. Its baseline is the same cell
// with one group of axes taken back to the default (baseline), and the
// cell must reproduce the baseline's report at the level contract
// derives. A baseline is a cell too, compared with its own, down to a
// root: the compiled engine, sequential, depth-first, static POR (or
// none), no cache. The axes that change the question rather than the
// way it is answered — POR off, NoSleep, MaxDepth, MaxIncidents and
// liveness — stay fixed along the way. A new feature adds an axis value
// and, if it weakens what is owed, a case of contract.

// A level is how much of its baseline's report a cell reproduces,
// strongest first.
type level int

const (
	// identical: every counter but the costs (ReplaySteps and the
	// trail's), coverage, and every sample with its rendered trace,
	// decisions and lasso split.
	identical level = iota
	// sameCounters: the terminal and incident counters and the multiset
	// of samples' (kind, depth, message). Which of several routes to a
	// cached state survives varies with the schedule.
	sameCounters
	// sameIncidents: the distinct (kind, depth, message) samples and
	// whether a deadlock and a violation exist. A reduction changes the
	// tree, never what it finds.
	sameIncidents
	// sameVerdict: which kinds of incident exist.
	sameVerdict
	// refused: Resolve rejects the option set.
	refused
)

// digest renders what a report owes another at level l.
func digest(rep *Report, l level) string {
	var b strings.Builder
	switch l {
	case identical:
		fmt.Fprintf(&b, "%s cause=%v first-incident=%d\n", rep, rep.Cause, rep.StatesAtFirstIncident)
		fmt.Fprintf(&b, "terminated=%d sleep=%d cache=%d internal=%d livelocks=%d red=%d/%d/%d por=%d/%d/%d coverage=%d/%d\n",
			rep.Terminated, rep.SleepPrunes, rep.CachePrunes, rep.InternalErrors,
			rep.Livelocks, rep.RedSearches, rep.RedStates, rep.RedCut,
			rep.PorBacktracks, rep.PorSleepBlocked, rep.PorDynamicPruned, rep.OpsCovered, rep.OpsTotal)
		for _, in := range rep.Samples {
			fmt.Fprintf(&b, "%sdecisions=%v cycle-start=%d\n", in, in.Decisions, in.CycleStart)
		}
	case sameCounters:
		fmt.Fprintf(&b, "terminated=%d deadlocks=%d violations=%d traps=%d divergences=%d\n",
			rep.Terminated, rep.Deadlocks, rep.Violations, rep.Traps, rep.Divergences)
		b.WriteString(sampleLines(rep, false))
	case sameIncidents:
		fmt.Fprintf(&b, "deadlock=%t violation=%t\n", rep.Deadlocks > 0, rep.Violations > 0)
		b.WriteString(sampleLines(rep, true))
	case sameVerdict:
		fmt.Fprintf(&b, "deadlock=%t violation=%t trap=%t divergence=%t livelock=%t internal=%t\n",
			rep.Deadlocks > 0, rep.Violations > 0, rep.Traps > 0, rep.Divergences > 0, rep.Livelocks > 0, rep.InternalErrors > 0)
	}
	return b.String()
}

// sampleLines lists the samples' (kind, depth, message) sorted, each
// once when distinct.
func sampleLines(rep *Report, distinct bool) string {
	lines := make([]string, 0, len(rep.Samples))
	for _, in := range rep.Samples {
		lines = append(lines, fmt.Sprintf("%s depth=%d msg=%q\n", in.Kind, in.Depth, in.Msg))
	}
	sort.Strings(lines)
	if distinct {
		lines = slices.Compact(lines)
	}
	return strings.Join(lines, "")
}

// kept renders a report's first sample without its route.
func kept(rep *Report) string {
	if len(rep.Samples) == 0 {
		return ""
	}
	in := rep.Samples[0]
	return fmt.Sprintf("%s depth=%d msg=%q cycle-start=%d", in.Kind, in.Depth, in.Msg, in.CycleStart)
}

// resumed is rep without what a search resumed from a checkpoint, or cut
// into slices, does not owe the uninterrupted one: Replays (a re-claimed
// unit replays its prefix) and the dynamic-POR bookkeeping.
func resumed(rep *Report) *Report {
	r := *rep
	r.Replays = 0
	r.PorBacktracks, r.PorSleepBlocked, r.PorDynamicPruned = 0, 0, 0
	return &r
}

// raced is resumed(rep) without the first-incident watermark, which
// follows whichever worker or slice reaches an incident first.
func raced(rep *Report) *Report {
	r := resumed(rep)
	r.StatesAtFirstIncident = 0
	return r
}

// A program of the lattice. loopFree marks the hand-written models whose
// every path ends: on them a parallel cached search reproduces its
// counters whatever the worker timing, elsewhere only its verdict.
type program struct {
	name     string
	src      string
	loopFree bool
}

var programs = append([]program{
	{"figure-p", progs.FigureP, true},
	{"deadlock-prone", progs.DeadlockProne, true},
	{"assert-violation", progs.AssertViolation, true},
	{"producer-consumer", progs.ProducerConsumer, true},
	{"philosophers-3", progs.Philosophers(3), true},
	{"pipeline-2-2", progs.Pipeline(2, 2), true},
	{"lock-greedy", lockserver.Source(lockserver.Config{Clients: 2, Rounds: 1, GreedyClient: true}), false},
	{"leader-seeded", leaderelect.Source(leaderelect.Config{Nodes: 3, SeedLivelock: true}), false},
	{"livelock-spin", livelockSpin, false},
	{"livelock-two-proc", livelockTwoProc, false},
}, randPrograms(3, 11, 29)...)

func randPrograms(seeds ...int64) []program {
	var ps []program
	for _, seed := range seeds {
		src := randprog.Generate(rand.New(rand.NewSource(seed)), randprog.Config{Processes: 3, MaxStmts: 6, Helpers: 1})
		ps = append(ps, program{fmt.Sprintf("rand-%d", seed), src, false})
	}
	return ps
}

// closedPrograms closes every program of the lattice.
func closedPrograms(t *testing.T) map[string]*cfg.Unit {
	t.Helper()
	units := map[string]*cfg.Unit{}
	for _, p := range programs {
		units[p.name] = mustClose(t, p.src)
	}
	return units
}

func mustClose(t *testing.T, src string) *cfg.Unit {
	t.Helper()
	closed, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	return closed
}

// A cell is one search: a program, its options, and how it is driven.
type cell struct {
	prog string
	opt  Options
	drv  driver
}

// A driver runs a cell's search: Explore when zero; cut at the first
// checkpoint after cut paths (and cancelled there), by a budget of
// cutStates, or by stopping at the first violation (stop), and resumed
// to the end; or Distribute over slicers in-process resumeSlicers that
// take batch units at a time and slice states each.
type driver struct {
	cut, cutStates int64
	stop           bool
	slicers, batch int
	slice          int64
}

// String names the cell by its program and the fields it sets.
func (c cell) String() string {
	var b strings.Builder
	b.WriteString(c.prog)
	for _, v := range []reflect.Value{reflect.ValueOf(c.drv), reflect.ValueOf(c.opt)} {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); !f.IsZero() {
				fmt.Fprintf(&b, " %s=%v", v.Type().Field(i).Name, f)
			}
		}
	}
	return b.String()
}

// observed marks a cell that publishes into a registry; each run gets a
// fresh one.
var observed = obs.New()

// A set is one value of an axis.
type set func(*cell)

func por(m PORMode) set             { return func(c *cell) { c.opt.POR = m } }
func workers(n int) set             { return func(c *cell) { c.opt.Workers = n } }
func spillDepth(n int) set          { return func(c *cell) { c.opt.SpillDepth = n } }
func shards(n int) set              { return func(c *cell) { c.opt.StateCache, c.opt.CacheShards = true, n } }
func resumeAfter(paths int64) set   { return func(c *cell) { c.drv.cut = paths } }
func resumeAfterStates(n int64) set { return func(c *cell) { c.drv.cutStates = n } }
func both(a, b set) set             { return func(c *cell) { a(c); b(c) } }

// stopAtViolation cuts the search at its first violation or trap.
func stopAtViolation(c *cell) { c.drv.stop = true }

// panicking makes every path through a state at depth 3 panic there.
func panicking(c *cell) {
	c.opt.testPanicAtState = func(d []Decision) bool { return len(d) == 3 }
}
func distribute(n, batch int, slice int64) set {
	return func(c *cell) { c.drv.slicers, c.drv.batch, c.drv.slice = n, batch, slice }
}

var (
	same       set = func(*cell) {}
	ref        set = func(c *cell) { c.opt.Engine = interp.EngineRef }
	cached     set = func(c *cell) { c.opt.StateCache = true }
	bounded    set = func(c *cell) { c.opt.StateCache, c.opt.CacheShards, c.opt.MaxCacheBytes = true, 1, 4<<10 }
	live       set = func(c *cell) { c.opt.Liveness = true }
	spill      set = func(c *cell) { c.opt.SnapshotSpill = true }
	replayOnly set = func(c *cell) { c.opt.testReplayOnly = true }
	withObs    set = func(c *cell) { c.opt.Obs = observed }
)

// A row is a product: its programs, on its base options, times one value
// of each axis.
type row struct {
	progs []string
	base  Options
	axes  [][]set
}

const all = 1 << 20 // MaxIncidents that keeps every sample

// rows are the lattice. Each was a grid of its own; a cell two rows
// share runs once.
var rows = []row{
	// Backtracking by undoing against replaying every path, under every
	// reduction, the cache and liveness, sequential, parallel, spilled
	// and resumed.
	{[]string{"figure-p", "assert-violation", "producer-consumer", "philosophers-3", "pipeline-2-2", "lock-greedy", "leader-seeded", "rand-3", "rand-11", "rand-29"},
		Options{MaxDepth: 40, SpillDepth: 3, MaxIncidents: all}, [][]set{
			{same, ref},
			{por(POROff), same, por(PORDynamic)},
			{same, cached, both(cached, live)},
			{same, workers(2), both(workers(2), spill), resumeAfter(3)},
			{same, replayOnly},
		}},
	// The reference interpreter against the compiled machine.
	{[]string{"pipeline-2-2", "philosophers-3"}, Options{MaxIncidents: all}, [][]set{
		{same, ref},
		{same, workers(2), workers(4)},
		{same, spill},
		{same, cached},
	}},
	// The sharded cache, unreduced, against the stateless search.
	{[]string{"pipeline-2-2", "philosophers-3"}, Options{POR: POROff, NoSleep: true, MaxIncidents: all}, [][]set{
		{same, workers(2), workers(4)},
		{same, spill},
		{shards(1), shards(8)},
	}},
	{[]string{"philosophers-3"}, Options{POR: POROff, NoSleep: true, MaxIncidents: all}, [][]set{
		{same, workers(2)},
		{bounded},
	}},
	// Dynamic POR against the static oracle.
	{[]string{"pipeline-2-2", "philosophers-3"}, Options{POR: PORDynamic, MaxIncidents: all}, [][]set{
		{same, workers(2), workers(4)},
		{same, spill},
		{same, shards(1), shards(8)},
	}},
	// Sleep sets without persistent sets.
	{[]string{"philosophers-3"}, Options{POR: POROff, MaxIncidents: all}, [][]set{{same}}},
	// Slices over serialized unit batches, merged.
	{[]string{"deadlock-prone", "philosophers-3"}, Options{MaxIncidents: all}, [][]set{
		{distribute(1, 1, 7), distribute(1, 1, 64), distribute(1, 3, 7), distribute(1, 3, 64),
			distribute(3, 1, 7), distribute(3, 1, 64), distribute(3, 3, 7), distribute(3, 3, 64)},
	}},
	{[]string{"philosophers-3"}, Options{POR: PORDynamic, MaxIncidents: all}, [][]set{
		{distribute(1, 2, 9), distribute(1, 2, 128), distribute(3, 2, 9), distribute(3, 2, 128)},
	}},
	// Interrupted at a checkpoint and resumed.
	{[]string{"deadlock-prone", "producer-consumer", "philosophers-3"}, Options{MaxIncidents: all}, [][]set{
		{same, workers(2), workers(4)},
		{resumeAfter(1), resumeAfter(7), resumeAfter(50)},
	}},
	// Worker counts, snapshot spill and the registry, at the default
	// sample bound.
	{[]string{"figure-p", "deadlock-prone", "assert-violation", "producer-consumer", "philosophers-3"}, Options{}, [][]set{
		{same, workers(1), workers(2), workers(3), workers(4)},
		{same, spill},
		{same, withObs},
	}},
	{[]string{"producer-consumer"}, Options{}, [][]set{
		{both(workers(3), spillDepth(1)), both(workers(3), spillDepth(4)), both(workers(3), spillDepth(64)), both(workers(2), cached)},
	}},
	{[]string{"philosophers-3"}, Options{}, [][]set{
		{same, workers(2)},
		{resumeAfterStates(40), both(resumeAfterStates(40), withObs)},
	}},
	// The registry against the report wherever a search ends early — a
	// budget, a stop at a violation, a cancellation — and where paths
	// panic. The engines publish in batches; what each has not published
	// when it returns, it publishes then.
	{[]string{"assert-violation", "producer-consumer"}, Options{MaxIncidents: all}, [][]set{
		{same, workers(2)},
		{resumeAfterStates(30), stopAtViolation, resumeAfter(4), panicking},
		{same, withObs},
	}},
	// Liveness.
	{[]string{"livelock-two-proc"}, Options{Liveness: true, MaxDepth: 60}, [][]set{
		{workers(2), workers(4)},
	}},
	{[]string{"livelock-spin"}, Options{Liveness: true, MaxDepth: 40}, [][]set{
		{ref},
	}},
	{[]string{"leader-seeded"}, Options{StateCache: true, Liveness: true, MaxIncidents: 1}, [][]set{
		{workers(1), workers(2)},
	}},
}

// cells multiplies out the rows, adds every cell's chain of baselines,
// and drops repeats, keeping the first. A spill depth where nothing
// spills is dropped, so such cells run once.
func cells() []cell {
	var out []cell
	seen := map[string]bool{}
	add := func(c cell) {
		for ok := true; ok && !seen[c.String()]; c, ok = c.baseline() {
			seen[c.String()] = true
			out = append(out, c)
		}
	}
	for _, r := range rows {
		var cs []cell
		for _, p := range r.progs {
			cs = append(cs, cell{prog: p, opt: r.base})
		}
		for _, axis := range r.axes {
			var next []cell
			for _, c := range cs {
				for _, v := range axis {
					d := c
					v(&d)
					next = append(next, d)
				}
			}
			cs = next
		}
		for _, c := range cs {
			if c.opt.Workers == 0 {
				c.opt.SpillDepth = 0 // read only by a search that spills (worker.go)
			}
			add(c)
		}
	}
	return out
}

// baseline is the cell c is compared with: c with the first group of
// axes it sets taken back, in this order — replay-only backtracking; the
// driver and the registry; the engine; snapshot spill; workers, spill
// depth and shard count; dynamic POR; the state cache, except under
// liveness, whose cycle detection runs on it. On a program that is not
// loop-free the depth bound cuts paths, and a reduction changes what the
// search sees within it: there dynamic POR with its schedule (which
// units are expanded statically) and the cache are part of the
// question. ok is false at a root.
func (c cell) baseline() (b cell, ok bool) {
	b = c
	o := &b.opt
	switch {
	case o.testReplayOnly:
		o.testReplayOnly = false
	case b.drv != driver{} || o.Obs != nil:
		b.drv, o.Obs = driver{}, nil
	case o.Engine != interp.EngineBytecode:
		o.Engine = interp.EngineBytecode
	case o.SnapshotSpill:
		o.SnapshotSpill = false
	case (o.Workers != 0 || o.SpillDepth != 0 || o.CacheShards != 0 && o.MaxCacheBytes == 0) && (o.POR != PORDynamic || c.loopFree()):
		o.Workers, o.SpillDepth = 0, 0
		if o.MaxCacheBytes == 0 {
			o.CacheShards = 0
		}
	case o.POR == PORDynamic && c.loopFree():
		o.POR = PORStatic
	case o.StateCache && !o.Liveness && c.loopFree():
		o.StateCache, o.CacheShards, o.MaxCacheBytes = false, 0, 0
	default:
		return c, false
	}
	return b, true
}

// loopFree reports whether every path of c's program ends.
func (c cell) loopFree() bool {
	for _, p := range programs {
		if p.name == c.prog {
			return p.loopFree
		}
	}
	panic("no program " + c.prog)
}

// parallel reports whether several workers, or slicers, search at once.
func (c cell) parallel() bool { return c.opt.Workers > 1 || c.drv.slicers > 1 }

// contract derives the level c owes its baseline b. The first case that
// holds wins:
//  1. refused: liveness with dynamic POR or snapshot spill.
//  2. sameVerdict: a cached search run in parallel or resumed (its cache
//     starts empty), on a program that is not loop-free.
//  3. sameIncidents: dynamic POR against the static oracle or under
//     another schedule (spilled units are expanded statically); a
//     cached search against the stateless one, or resumed; a bounded
//     cache in parallel (what it evicts follows the schedule).
//  4. sameCounters: a parallel cached search.
//  5. identical: everything else.
func contract(c, b cell, loopFree bool) level {
	o := c.opt
	evicting := o.MaxCacheBytes != 0 && c.parallel()
	// A checkpoint carries the live stack, so a resumed search keeps its
	// schedule; slices and workers do not.
	rescheduled := o.Workers != b.opt.Workers || o.SnapshotSpill != b.opt.SnapshotSpill ||
		o.SpillDepth != b.opt.SpillDepth || c.drv.slicers != b.drv.slicers
	resumedCache := o.StateCache && c.drv != b.drv
	switch {
	case o.Liveness && (o.POR == PORDynamic || o.SnapshotSpill):
		return refused
	case o.StateCache && (c.parallel() || resumedCache) && !loopFree:
		return sameVerdict
	case o.POR != b.opt.POR || o.POR == PORDynamic && rescheduled || o.StateCache != b.opt.StateCache || resumedCache || evicting:
		return sameIncidents
	case o.StateCache && c.parallel():
		return sameCounters
	}
	return identical
}

// unreducedPipeline reports whether c searches the diamond pipeline with
// neither reduction, where routes converge and the cache must prune.
func (c cell) unreducedPipeline() bool {
	return c.prog == "pipeline-2-2" && c.opt.POR == POROff && c.opt.NoSleep
}

// A result is what a cell's run left to compare.
type result struct {
	rep *Report
	// checkpoint is the resume driver's cut, encoded with its cost
	// counter levelled ("" when the search ended before it).
	checkpoint string
}

// run runs c's search on u, checking what every run owes whatever it is
// compared with: it completes; Workers and WorkerStats describe the
// cell, whose workers claim units; a search that is not dynamic keeps the dynamic-POR counters at
// zero; the registry, where there is one, equals the report.
func (c cell) run(t *testing.T, u *cfg.Unit) result {
	t.Helper()
	opt := c.opt
	if opt.Obs != nil {
		opt.Obs = obs.New()
	}
	var res result
	var err error
	switch d := c.drv; {
	case d.slicers > 0:
		res.rep, err = Distribute(context.Background(), u, nil, opt,
			slicers(d.slicers, func(int) *resumeSlicer { return &resumeSlicer{u: u, opt: opt, take: d.batch} }), d.slice)
	case d.cut > 0 || d.cutStates > 0 || d.stop:
		var snap *Snapshot
		switch {
		case d.cut > 0:
			snap, res.rep = cutOnce(t, u, opt, d.cut)
		case d.stop:
			cutOpt := opt
			cutOpt.Stop = StopViolation
			if res.rep, err = Explore(u, cutOpt); err == nil {
				snap = res.rep.Snapshot() // nil: no violation stopped it
			}
		default:
			cutOpt := opt
			cutOpt.MaxStates = d.cutStates
			if res.rep, err = Explore(u, cutOpt); err == nil {
				if snap = res.rep.Snapshot(); snap == nil {
					t.Fatalf("%s: the budget did not cut the search", c)
				}
			}
		}
		if err != nil || snap == nil {
			break // the search ended before the checkpoint
		}
		checkRegistryMatches(t, opt.Obs, res.rep)
		levelled := *snap
		levelled.Counters.ReplaySteps = 0
		enc, err := levelled.Encode()
		if err != nil {
			t.Fatalf("%s: Encode: %v", c, err)
		}
		res.checkpoint = string(enc)
		if opt.Obs != nil {
			opt.Obs = obs.New()
		}
		res.rep, err = Resume(u, snap, opt)
		if err == nil && opt.Obs != nil {
			if got := opt.Obs.Counter(MetricResumes).Load(); got != 1 {
				t.Errorf("%s: %s = %d, want 1", c, MetricResumes, got)
			}
		}
	default:
		res.rep, err = Explore(u, opt)
	}
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	rep := res.rep
	if rep.Incomplete {
		t.Fatalf("%s: search did not complete: %s", c, rep)
	}
	want := opt.Workers
	if c.drv.slicers > 0 {
		want = c.drv.slicers
	}
	if rep.Workers != want || len(rep.WorkerStats) != max(want, 1) {
		t.Errorf("%s: Workers = %d with %d worker stats, want %d", c, rep.Workers, len(rep.WorkerStats), want)
	}
	if opt.Workers > 0 && !slices.ContainsFunc(rep.WorkerStats, func(ws WorkerStat) bool { return ws.Units > 0 }) {
		t.Errorf("%s: the workers claimed no work units", c)
	}
	if opt.POR != PORDynamic && (rep.PorBacktracks != 0 || rep.PorSleepBlocked != 0 || rep.PorDynamicPruned != 0) {
		t.Errorf("%s: a %s search moved the dynamic-POR counters: %d/%d/%d",
			c, opt.POR, rep.PorBacktracks, rep.PorSleepBlocked, rep.PorDynamicPruned)
	}
	if c.unreducedPipeline() && opt.StateCache && rep.CachePrunes == 0 {
		t.Errorf("%s: no cache prunes on the diamond pipeline", c)
	}
	checkRegistryMatches(t, opt.Obs, rep)
	if opt.Obs != nil && c.drv.slicers == 0 {
		if got := opt.Obs.Gauge(MetricWorkers).Load(); got != int64(opt.Workers) {
			t.Errorf("%s: %s = %d, want %d", c, MetricWorkers, got, opt.Workers)
		}
	}
	return res
}

// checkRegistryMatches asserts the observability contract: every
// registry counter the engine flushes equals the corresponding merged
// Report counter exactly — not approximately, not eventually. A nil
// registry checks nothing.
func checkRegistryMatches(t *testing.T, reg *obs.Registry, rep *Report) {
	t.Helper()
	if reg == nil {
		return
	}
	for _, c := range []struct {
		metric string
		want   int64
	}{
		{MetricStates, rep.States},
		{MetricTransitions, rep.Transitions},
		{MetricPaths, rep.Paths},
		{MetricReplays, rep.Replays},
		{MetricReplaySteps, rep.ReplaySteps},
		{MetricIncidents, rep.Incidents()},
		{MetricPorBacktracks, rep.PorBacktracks},
		{MetricPorSleepBlocked, rep.PorSleepBlocked},
		{MetricPorDynamicPruned, rep.PorDynamicPruned},
		{MetricTrailRestores, rep.TrailRestores},
		{MetricTrailUndone, rep.TrailUndone},
		{MetricTrailDrops, rep.TrailDrops},
	} {
		if got := reg.Counter(c.metric).Load(); got != c.want {
			t.Errorf("%s = %d, report says %d", c.metric, got, c.want)
		}
	}
	if got, want := reg.Gauge(MetricDepthMax).Load(), int64(rep.MaxDepth); got != want {
		t.Errorf("%s = %d, report says %d", MetricDepthMax, got, want)
	}
}

// cutOnce runs a search that checkpoints after cut paths and cancels
// there. It returns the first checkpoint, nil when the search finished
// first, and the report the search returned.
func cutOnce(t *testing.T, u *cfg.Unit, opt Options, cut int64) (*Snapshot, *Report) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *Snapshot
	opt.CheckpointEveryPaths = cut
	opt.Checkpoint = func(s *Snapshot) {
		if snap == nil {
			snap = s
			cancel()
		}
	}
	rep, err := ExploreContext(ctx, u, opt)
	if err != nil {
		t.Fatalf("ExploreContext: %v", err)
	}
	return snap, rep
}

// TestLattice runs every cell of the lattice and holds it to its
// baseline. Beyond the contracts it checks that a root, and a sequential
// cached search, report the same when run twice; that backtracking by
// undoing never re-executes more than replaying does, and that some
// sequential search saves by it; that snapshot spill never re-executes
// more than replay does, and sometimes less; that a cached cell prunes
// wherever its cached baseline, driven alike, does; and that the cache
// shrinks the unreduced diamond pipeline. The programs run in parallel.
func TestLattice(t *testing.T) {
	byProg := map[string][]cell{}
	for _, c := range cells() {
		byProg[c.prog] = append(byProg[c.prog], c)
	}
	var sawSaving, sawSpillSaving atomic.Bool
	t.Cleanup(func() {
		if !sawSaving.Load() {
			t.Error("no configuration backtracked deep enough to show a saving")
		}
		if !sawSpillSaving.Load() {
			t.Error("snapshot spilling never reduced ReplaySteps")
		}
	})
	// check holds got, c's run, to want, b's run (a second run of c when b
	// is c).
	check := func(t *testing.T, c, b cell, got, want result, loopFree bool) {
		t.Helper()
		gr, wr := *got.rep, *want.rep
		g, w := &gr, &wr
		if c.drv != b.drv {
			g, w = resumed(g), resumed(w)
		}
		if g.StatesAtFirstIncident > g.States {
			t.Errorf("%s: first incident at %d states of %d", c, g.StatesAtFirstIncident, g.States)
		}
		if c.opt.Workers > 0 || b.opt.Workers > 0 || c.drv.slicers > 0 {
			g.StatesAtFirstIncident, w.StatesAtFirstIncident = 0, 0
		}
		l := contract(c, b, loopFree)
		if dg, dw := digest(g, l), digest(w, l); dg != dw {
			t.Errorf("%s: differs from its baseline at level %d:\n--- got ---\n%s--- baseline %s ---\n%s", c, l, dg, b, dw)
		}
		// A search that keeps one sample keeps the smallest, whose kind,
		// depth, message and lasso split no schedule changes. Only
		// leader-seeded keeps one, and it is its seeded livelock.
		if c.opt.MaxIncidents == 1 && (len(g.Samples) != 1 || kept(g) != kept(w) || w.Samples[0].Kind != LeafLivelock) {
			t.Errorf("%s: kept %d samples, %q; its baseline kept %q, want a livelock", c, len(g.Samples), kept(g), kept(w))
		}
		if l == identical && got.checkpoint != want.checkpoint && c.drv == b.drv {
			t.Errorf("%s: checkpoints differ:\n--- got ---\n%s\n--- baseline ---\n%s", c, got.checkpoint, want.checkpoint)
		}
		if c.opt.StateCache && b.opt.StateCache && c.drv == b.drv && w.CachePrunes > 0 && g.CachePrunes == 0 {
			t.Errorf("%s: no cache prunes; its baseline pruned %d", c, w.CachePrunes)
		}
		cost := c.opt.StateCache && c.parallel()
		switch {
		case c.opt.testReplayOnly && !b.opt.testReplayOnly && !cost:
			if g.ReplaySteps < w.ReplaySteps {
				t.Errorf("%s: replay re-executed %d transitions, restore %d", c, g.ReplaySteps, w.ReplaySteps)
			}
			// A sequential search that backtracked past depth one
			// replayed a multi-step prefix; restoring must have been
			// cheaper where the machine keeps a trail.
			if c.opt.Workers == 0 && c.opt.Engine != interp.EngineRef && g.ReplaySteps > g.Replays {
				if w.ReplaySteps >= g.ReplaySteps {
					t.Errorf("%s: restore saved nothing: %d replay steps, replay mode %d", c, w.ReplaySteps, g.ReplaySteps)
				}
				sawSaving.Store(true)
			}
		case c.opt.SnapshotSpill && !b.opt.SnapshotSpill && !cost:
			if g.ReplaySteps > w.ReplaySteps {
				t.Errorf("%s: spilling snapshots re-executed %d transitions, without %d", c, g.ReplaySteps, w.ReplaySteps)
			}
			if g.ReplaySteps < w.ReplaySteps {
				sawSpillSaving.Store(true)
			}
		case c.unreducedPipeline() && c.opt.StateCache && !b.opt.StateCache && g.States >= w.States:
			t.Errorf("%s: the cache did not shrink the search: %d states, stateless %d", c, g.States, w.States)
		}
	}
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			u := mustClose(t, p.src)
			results := map[string]result{}
			get := func(c cell) result {
				r, ok := results[c.String()]
				if !ok {
					r = c.run(t, u)
					results[c.String()] = r
				}
				return r
			}
			for _, c := range byProg[p.name] {
				b, ok := c.baseline() // b is c at a root
				if contract(c, b, p.loopFree) == refused {
					if _, err := c.opt.Resolve(); err == nil {
						t.Errorf("%s: Resolve accepted a search it cannot honour", c)
					}
					continue
				}
				if !ok || c.opt.StateCache && c.opt.Workers == 0 && c.drv == (driver{}) {
					check(t, c, c, get(c), c.run(t, u), p.loopFree)
				}
				if ok {
					check(t, c, b, get(c), get(b), p.loopFree)
				}
			}
		})
	}
}

// notAnAxis lists the Options fields no cell varies, with the reason.
// Every other exported field must be set by some cell: a new option
// either joins an axis — and contract says what it may change — or is
// listed here.
var notAnAxis = map[string]string{
	"MaxStates":            "a budget: a cut search is compared once resumed to the end (the resume driver's cutStates)",
	"Stop":                 "stops a search at an incident: a cut, not a way to search the whole tree",
	"Cache":                "a distributed worker process's cache shared between its slices",
	"OnLeaf":               "a callback",
	"Fault":                "fault injection: an injected panic costs a path (panic_test.go, fault_test.go)",
	"Timeout":              "a wall-clock budget",
	"Checkpoint":           "a callback; the resume driver sets it",
	"CheckpointEvery":      "checkpoint cadence by wall clock",
	"CheckpointEveryPaths": "checkpoint cadence; the resume driver's cut",
}

// TestEveryOptionIsAnAxis holds Options to the lattice: each exported
// field is varied by some cell or listed in notAnAxis, not both.
func TestEveryOptionIsAnAxis(t *testing.T) {
	varied := map[string]bool{}
	for _, c := range cells() {
		v := reflect.ValueOf(c.opt)
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				varied[v.Type().Field(i).Name] = true
			}
		}
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		_, listed := notAnAxis[f.Name]
		switch {
		case !varied[f.Name] && !listed:
			t.Errorf("Options.%s is on no axis of the lattice and not in notAnAxis", f.Name)
		case varied[f.Name] && listed:
			t.Errorf("Options.%s is on an axis of the lattice and in notAnAxis", f.Name)
		}
	}
}
