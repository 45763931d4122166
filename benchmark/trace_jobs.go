package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"time"

	"reclose/internal/jobs"
	"reclose/internal/obs"
)

// jobServer is an in-process jobs.Manager behind jobs.NewHandler on a
// loopback listener: the daemon's job path without the process.
type jobServer struct {
	mgr *jobs.Manager
	srv *httptest.Server
}

func openJobServer(dataDir string, reg *obs.Registry) (*jobServer, error) {
	mgr, err := jobs.Open(jobs.Config{DataDir: dataDir, Workers: clients, Obs: reg})
	if err != nil {
		return nil, err
	}
	return &jobServer{mgr: mgr, srv: httptest.NewServer(jobs.NewHandler(mgr, reg))}, nil
}

func (s *jobServer) close() error {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), bootTimeout)
	defer cancel()
	return s.mgr.Drain(ctx)
}

// inprocSubmitter times Manager.Submit to AwaitState with no HTTP in
// between. The request is parsed before the clock starts.
func inprocSubmitter(mgr *jobs.Manager) submitFunc {
	return func(_ context.Context, _ int, _ *runItem, body []byte) (*jobs.View, time.Duration, error) {
		req, err := jobs.ParseRequest(body)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		v, err := mgr.Submit(req)
		if err != nil {
			return nil, 0, err
		}
		v, _ = mgr.AwaitState(v.ID, jobTimeout, jobs.StateDone)
		if v == nil {
			return nil, 0, fmt.Errorf("job vanished from the table")
		}
		return v, time.Since(start), nil
	}
}

// jobBatchOn opens a fresh job server, warms it with one cycle of the
// mix, runs the batch through submit and closes the server.
func jobBatchOn(ctx context.Context, e *env, bodies [][]byte, seq []int, r *runDoc, reg *obs.Registry,
	submitter func(*jobServer) (submitFunc, func())) (sample, time.Duration, error) {
	s, err := openJobServer(e.newDataDir(), reg)
	if err != nil {
		return nil, 0, err
	}
	submit, done := submitter(s)
	warm := make([]int, len(e.items))
	for i := range warm {
		warm[i] = i
	}
	runBatch(ctx, e.items, bodies, warm, submit)
	outcomes, wall := runBatch(ctx, e.items, bodies, seq, submit)
	done()
	if err := s.close(); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	ms, _ := r.tally(outcomes)
	return ms, wall, nil
}

// newDataDir names a fresh journal directory inside the scratch
// directory.
func (e *env) newDataDir() string {
	e.dataDirs++
	return filepath.Join(e.dir, fmt.Sprintf("data-%d", e.dataDirs))
}

// tracedJobPair is the daemon workload's in-process pair: one batch of
// the mix over loopback HTTP bare, the same batch with spans and a
// registry, and the same batch again straight into the manager — whose
// median, taken from the HTTP median, is what HTTP costs a job.
func tracedJobPair(ctx context.Context, tr *tracer, e *env, wl *workload, rng *rand.Rand, r *runDoc) (bare, traced time.Duration, layer map[string]float64, err error) {
	bodies, err := jobBodies(e.items)
	if err != nil {
		return 0, 0, nil, err
	}
	seq := mixSequence(rng, len(e.items), wl.Cycles)
	overHTTP := func(tr *tracer) func(*jobServer) (submitFunc, func()) {
		return func(s *jobServer) (submitFunc, func()) { return httpSubmitter(s.srv.URL, tr) }
	}

	httpMS, bare, err := jobBatchOn(ctx, e, bodies, seq, r, nil, overHTTP(nil))
	if err != nil {
		return 0, 0, nil, err
	}
	reg := obs.New()
	_, traced, err = jobBatchOn(ctx, e, bodies, seq, r, reg, overHTTP(tr))
	if err != nil {
		return 0, 0, nil, err
	}
	inprocMS, _, err := jobBatchOn(ctx, e, bodies, seq, r, nil, func(s *jobServer) (submitFunc, func()) {
		return inprocSubmitter(s.mgr), func() {}
	})
	if err != nil {
		return 0, 0, nil, err
	}

	done := float64(reg.Counter(jobs.MetricCompleted).Load())
	layer = map[string]float64{
		"jobs.inproc_latency_ms":   inprocMS.median(),
		"jobs.http_overhead_ms":    httpMS.median() - inprocMS.median(),
		"jobs.checkpoints_per_job": float64(reg.Counter(jobs.MetricCheckpoints).Load()) / done,
		"jobs.attempts_per_job":    float64(reg.Counter(jobs.MetricAttempts).Load()) / done,
		"jobs.queue_depth_max":     float64(reg.Gauge(jobs.MetricQueueDepthMax).Load()),
		"jobs.rejected":            float64(reg.Counter(jobs.MetricRejected).Load()),
		"jobs.retries":             float64(reg.Counter(jobs.MetricRetries).Load()),
	}
	return bare, traced, layer, nil
}
