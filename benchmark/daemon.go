package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"reclose/internal/jobs"
)

// jobClient is one closed-loop caller: one keep-alive connection, the
// next job only after the previous one is terminal.
type jobClient struct {
	base string
	http *http.Client
}

func newJobClient(base string) *jobClient {
	return &jobClient{base: base, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   jobTimeout,
	}}
}

func (c *jobClient) close() { c.http.CloseIdleConnections() }

// do sends one request and decodes a job view. Any status outside 2xx —
// a 429 or 503 refusal included — is an error: a refused operation
// counts as failed.
func (c *jobClient) do(ctx context.Context, method, path string, body []byte) (*jobs.View, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	var v jobs.View
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return &v, nil
}

func terminal(s jobs.State) bool {
	return s == jobs.StateDone || s == jobs.StateFailed || s == jobs.StateCancelled
}

// runJob submits one job and polls at a fixed interval until it is
// terminal. The latency runs from the POST being sent to the first GET
// that shows a terminal state. Spans go to tr when it is non-nil.
func (c *jobClient) runJob(ctx context.Context, tr *tracer, it *runItem, body []byte) (*jobs.View, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	start := time.Now()
	root := tr.begin(noSpan, "job", it.Name)
	defer func() { tr.end(root, nil) }()

	sp := tr.begin(root, "http.submit", it.Name)
	v, err := c.do(ctx, http.MethodPost, "/jobs", body)
	tr.end(sp, nil)
	if err != nil {
		return nil, 0, err
	}
	wait := tr.begin(root, "job.wait", it.Name)
	polls := int64(0)
	defer func() { tr.end(wait, map[string]int64{"http.polls": polls}) }()
	for !terminal(v.State) {
		time.Sleep(pollEvery) // the GET below fails once ctx has expired
		sp := tr.begin(wait, "http.poll", it.Name)
		v, err = c.do(ctx, http.MethodGet, "/jobs/"+v.ID, nil)
		tr.end(sp, nil)
		polls++
		if err != nil {
			return nil, 0, err
		}
	}
	return v, time.Since(start), nil
}

// jobOutcome is one finished (or failed) job of a batch.
type jobOutcome struct {
	ms       float64
	failed   error
	mistaken error
	work     int64 // forward transitions of the job's search
}

// submitFunc runs one job to a terminal state on behalf of the numbered
// client and returns the final view and the latency.
type submitFunc func(ctx context.Context, client int, it *runItem, body []byte) (*jobs.View, time.Duration, error)

// httpSubmitter gives each client its own keep-alive connection to the
// server at base. The returned function closes them.
func httpSubmitter(base string, tr *tracer) (submitFunc, func()) {
	var cls [clients]*jobClient
	for i := range cls {
		cls[i] = newJobClient(base)
	}
	submit := func(ctx context.Context, client int, it *runItem, body []byte) (*jobs.View, time.Duration, error) {
		return cls[client].runJob(ctx, tr, it, body)
	}
	return submit, func() {
		for _, c := range cls {
			c.close()
		}
	}
}

// runBatch pushes the job sequence through `clients` closed-loop
// clients and returns one outcome per job and the batch's wall time.
func runBatch(ctx context.Context, items []runItem, bodies [][]byte, seq []int, submit submitFunc) ([]jobOutcome, time.Duration) {
	out := make([]jobOutcome, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(seq) || ctx.Err() != nil {
					return
				}
				it := &items[seq[n]]
				v, took, err := submit(ctx, client, it, bodies[seq[n]])
				o := &out[n]
				switch {
				case err != nil:
					o.failed = fmt.Errorf("%s: %w", it.Name, err)
				case v.State != jobs.StateDone || v.Result == nil:
					o.failed = fmt.Errorf("%s: job %s ended %s: %s", it.Name, v.ID, v.State, v.Error)
				default:
					o.ms = float64(took) / float64(time.Millisecond)
					o.work = v.Result.Transitions
					if err := it.Want.check(jobVerdict(v.Result)); err != nil {
						o.mistaken = fmt.Errorf("%s: %w", it.Name, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// tally counts a batch's outcomes into the run and returns the
// latencies of the jobs that finished and their summed transitions.
func (r *runDoc) tally(outcomes []jobOutcome) (ms sample, work int64) {
	for _, o := range outcomes {
		r.Attempted++
		switch {
		case o.failed != nil:
			r.Failed++
			r.problem("%v", o.failed)
			continue
		case o.mistaken != nil:
			r.Mistaken++
			r.problem("%v", o.mistaken)
		}
		ms = append(ms, o.ms)
		work += o.work
	}
	return ms, work
}

// jobBodies renders each item's submission document once.
func jobBodies(items []runItem) ([][]byte, error) {
	bodies := make([][]byte, len(items))
	for i, it := range items {
		b, err := json.Marshal(it.Search.request(it.Src))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// mixSequence is one batch: `cycles` copies of every item, in seeded
// order, so every batch is the same mix.
func mixSequence(rng *rand.Rand, items, cycles int) []int {
	seq := make([]int, 0, items*cycles)
	for c := 0; c < cycles; c++ {
		for i := 0; i < items; i++ {
			seq = append(seq, i)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// runDaemonPasses drives the booted daemon: an untimed warm-up, then
// timed batches until the time is used, then a graceful drain.
func runDaemonPasses(ctx context.Context, e *env, host *hostClock, wl *workload, rng *rand.Rand, budget time.Duration, r *runDoc) error {
	bodies, err := jobBodies(e.items)
	if err != nil {
		return err
	}
	warm := mixSequence(rng, len(e.items), (wl.Warmup+len(e.items)-1)/len(e.items))
	submit, closeConns := httpSubmitter(e.daemon.base, nil)
	defer closeConns()
	warmed, _ := runBatch(ctx, e.items, bodies, warm, submit)
	for _, o := range warmed {
		if o.failed != nil {
			return fmt.Errorf("warm-up: %w", o.failed)
		}
	}

	var (
		latencies                             sample // every timed job, pooled
		passWall, passRate, passP50, passTail sample
		perItem                               = make(map[string]sample)
		firstWork                             int64
		rss                                   float64
	)
	start := time.Now()
	var longest time.Duration
	for pass := 0; pass == 0 || !timeUp(start, longest, budget); pass++ {
		passStart := time.Now()
		seq := mixSequence(rng, len(e.items), wl.Cycles)
		host.tick() // between batches the daemon is idle
		outcomes, wall := runBatch(ctx, e.items, bodies, seq, submit)
		if err := ctx.Err(); err != nil {
			return err
		}
		batch, work := r.tally(outcomes)
		for n, o := range outcomes {
			if o.failed == nil {
				name := e.items[seq[n]].Name
				perItem[name] = append(perItem[name], o.ms)
			}
		}
		if pass == 0 {
			firstWork = work
			// The daemon keeps every job it has served in memory, so its
			// resident set grows with the number of jobs: read at drain
			// it would measure how many batches fitted into the run. Read
			// after the first batch it is the peak at a fixed job count.
			if rss, err = e.daemon.peakRSSMiB(); err != nil {
				return err
			}
		} else if work != firstWork {
			r.problem("transitions_total %d in batch %d, %d in batch 0: the searches are not deterministic", work, pass, firstWork)
		}
		latencies = append(latencies, batch...)
		tail, _ := batch.tail()
		passWall = append(passWall, wall.Seconds())
		passRate = append(passRate, float64(len(seq))/wall.Seconds())
		passP50 = append(passP50, batch.median())
		passTail = append(passTail, tail)
		r.Passes++
		longest = max(longest, time.Since(passStart))
	}

	d := e.daemon
	e.daemon = nil
	if err := d.drain(); err != nil {
		return err
	}

	r.TransitionsTotal = firstWork
	r.set("verdict_wall_s", passWall)
	r.set("work_per_s", passRate)
	r.setValue("verdict_p50_ms", latencies.median(), passP50)
	tail, pct := latencies.tail()
	r.TailPercentile = pct
	r.setValue("verdict_tail_ms", tail, passTail)
	r.set("peak_rss_mb", sample{rss})
	for _, it := range e.items {
		r.Items = append(r.Items, itemRow{
			Name:        it.Name,
			Runs:        len(perItem[it.Name]),
			MedianMS:    perItem[it.Name].median(),
			Exit:        it.Want.Exit,
			Transitions: it.Want.Transitions,
		})
	}
	return nil
}
