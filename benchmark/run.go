package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// setUps is how many times a run performs the whole set-up. The driver's
// contract asks for several and their median, so that one slow link step
// does not decide setup_s; the price is ≈1.4 s of every ≈36 s run.
const setUps = 3

// runEndToEnd is one untraced run of a workload: set up, setUps times,
// then measure on the last set-up.
func runEndToEnd(ctx context.Context, root, scratch string, wl *workload, seed int64, seconds float64) (*runDoc, error) {
	var host hostClock
	var setup sample
	var e *env
	defer func() { e.tearDown() }()
	for i := 0; i < setUps; i++ {
		e.tearDown()
		host.tick()
		start := time.Now()
		var err error
		if e, err = setUpEndToEnd(ctx, root, scratch, wl, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	return runPasses(ctx, e, &host, setup, wl, seed, seconds)
}

// setUpEndToEnd is one whole set-up of an untraced run: binaries,
// inputs, known answers and, on the daemon workload, a booted verisoftd.
func setUpEndToEnd(ctx context.Context, root, scratch string, wl *workload, seed int64) (*env, error) {
	e, err := setUp(ctx, root, scratch, wl, seed)
	if err != nil {
		return nil, err
	}
	if wl.tool() == toolJob {
		if e.daemon, err = bootDaemon(ctx, e.bin["verisoftd"], e.newDataDir()); err != nil {
			e.tearDown()
			return nil, err
		}
	}
	return e, nil
}

// runPasses measures whole passes through the shipped binaries of e
// until the time is used; setup is what setting e up took. host has
// timed the kernel beside the set-ups and goes on doing so beside the
// passes; every timing of the run is then corrected by its slowness.
func runPasses(ctx context.Context, e *env, host *hostClock, setup sample, wl *workload, seed int64, seconds float64) (*runDoc, error) {
	r := &runDoc{Workload: wl.Name, Seed: seed, Seconds: seconds, Metrics: make(map[string]metricValue)}
	r.set("setup_s", setup)

	// The seed fixes the order of items within each pass and the order
	// of the job mix; the program under test sees only the inputs.
	rng := rand.New(rand.NewSource(seed))
	budget := time.Duration(seconds * float64(time.Second))
	var err error
	if wl.tool() == toolJob {
		err = runDaemonPasses(ctx, e, host, wl, rng, budget, r)
	} else {
		err = runCLIPasses(ctx, e, host, rng, budget, r)
	}
	if err != nil {
		return nil, err
	}
	r.correctForHost(host)
	r.settle()
	return r, nil
}

// timeUp reports whether another pass, which may take as long as the
// longest so far, would end further from the budget than stopping now.
// A run therefore measures for the budget give or take half a pass,
// where "until the budget is passed" would overshoot by up to a whole one.
func timeUp(start time.Time, longest, budget time.Duration) bool {
	return time.Since(start)+longest/2 >= budget
}

// runCLIPasses runs every item once per pass, each as one cold process,
// one at a time.
func runCLIPasses(ctx context.Context, e *env, host *hostClock, rng *rand.Rand, budget time.Duration, r *runDoc) error {
	var (
		passWall, passWork, passP50, passSlowest, passRSS sample
		perItem                                           = make(map[string]sample)
		rss                                               = make(map[string]float64)
		firstTransitions                                  int64
	)
	start := time.Now()
	var longest time.Duration
	for pass := 0; pass == 0 || !timeUp(start, longest, budget); pass++ {
		passStart := time.Now()
		var wall, work, slowest, peak float64
		var transitions int64
		var fixed sample
		for _, i := range rng.Perm(len(e.items)) {
			if err := ctx.Err(); err != nil {
				return err
			}
			it := &e.items[i]
			host.tick()
			res := runChild(ctx, itemTimeout, e.bin[it.Tool], append(it.args(), it.File)...)
			r.Attempted++
			if res.err != nil {
				r.Failed++
				r.problem("%s: %v", it.Name, res.err)
				continue
			}
			got, err := parseCLI(it.Tool, res.exit, res.stdout)
			if err == nil {
				err = it.Want.check(got)
			}
			if err != nil {
				r.Mistaken++
				r.problem("%s: %v", it.Name, err)
			}
			ms := float64(res.wall) / float64(time.Millisecond)
			wall += res.wall.Seconds()
			work += float64(got.NodesOpen + got.Transitions)
			transitions += got.Transitions
			slowest = max(slowest, ms)
			peak = max(peak, res.rssMiB)
			if !it.tail {
				fixed = append(fixed, ms)
			}
			perItem[it.Name] = append(perItem[it.Name], ms)
			rss[it.Name] = max(rss[it.Name], res.rssMiB)
		}
		if pass == 0 {
			firstTransitions = transitions
		} else if transitions != firstTransitions {
			r.problem("transitions_total %d in pass %d, %d in pass 0: the searches are not deterministic", transitions, pass, firstTransitions)
		}
		passP50 = append(passP50, fixed.median())
		passWall = append(passWall, wall)
		passWork = append(passWork, work/wall)
		passSlowest = append(passSlowest, slowest)
		passRSS = append(passRSS, peak)
		r.Passes++
		longest = max(longest, time.Since(passStart))
	}
	r.TransitionsTotal = firstTransitions
	r.set("verdict_wall_s", passWall)
	r.set("work_per_s", passWork)
	// Tail items are left out of the median: each is the ≈4 ms cold-start
	// floor, which cli.startup_ms reports and which jitters by a tenth
	// on this host; with eight of them the median would be that floor.
	r.set("verdict_p50_ms", passP50)
	r.set("verdict_tail_ms", passSlowest)
	r.set("peak_rss_mb", passRSS)
	for _, it := range e.items {
		r.Items = append(r.Items, itemRow{
			Name:        it.Name,
			Runs:        len(perItem[it.Name]),
			MedianMS:    perItem[it.Name].median(),
			PeakRSSMiB:  rss[it.Name],
			Exit:        it.Want.Exit,
			Transitions: it.Want.Transitions,
			WallMS:      perItem[it.Name],
		})
	}
	return nil
}

func (it *runItem) args() []string {
	if it.Tool == toolReclose {
		return []string{"-stats"}
	}
	return it.Search.args()
}
