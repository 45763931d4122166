package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"reclose/internal/atomicio"
	"reclose/internal/cfg"
	"reclose/internal/dist"
	"reclose/internal/explore"
	"reclose/internal/interp"
	"reclose/internal/jobs"
	"reclose/internal/lexer"
	"reclose/internal/statecache"
)

// A probe times one public function of a layer in a loop, on state the
// workload produced. Probe rows say what a call costs; they are not part
// of any pass and are marked as probes in README.md.

const (
	probeSteps    = 200000 // interpreter steps per tier
	probeEpisode  = 4096   // steps before a schedule walk restarts
	probeCalls    = 2000   // calls of a sub-microsecond..millisecond function
	probeSlow     = 50     // calls of a function that fsyncs or forks a process
	probePrefix   = 64     // steps walked before state probes are taken
	probeHarvest  = 20000  // fingerprints harvested for the cache probe
	probeSnapshot = 20000  // state budget of the run whose frontier is encoded
)

var toss0 = interp.FixedChooser(0)

// perCall times n calls of f and returns nanoseconds per call.
func perCall(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start)) / float64(n)
}

// walk drives m along the schedule pick chooses among the enabled
// processes, for up to n steps, restarting from the initial state when
// the run ends or an episode is used up. visit, if set, sees the
// machine after every step.
func walk(m interp.Machine, n int, pick func(enabled []int) int, visit func(interp.Machine)) {
	var enabled []int
	for steps := 0; steps < n; {
		m.Reset()
		if out := m.Init(toss0); out != nil {
			return
		}
		for ep := 0; ep < probeEpisode && steps < n; ep++ {
			if enabled = m.AppendEnabled(enabled[:0]); len(enabled) == 0 {
				break
			}
			_, out := m.Step(pick(enabled), toss0)
			steps++
			if visit != nil {
				visit(m)
			}
			if out != nil {
				break
			}
		}
	}
}

func firstEnabled(enabled []int) int { return enabled[0] }

// probeUnit is the closed unit of the workload's first searched item.
func probeUnit(e *env, want func(*runItem) bool) (*runItem, *cfg.Unit, error) {
	for i := range e.items {
		it := &e.items[i]
		if it.Tool == toolReclose || !want(it) {
			continue
		}
		unit, _, err := frontEnd(nil, noSpan, it.Name, it.Src, false)
		return it, unit, err
	}
	return nil, nil, nil
}

func anyItem(*runItem) bool { return true }

// runProbes takes every probe the workload's layers call for. Spans of
// the stand-alone runs go to tr.
func runProbes(ctx context.Context, tr *tracer, e *env, wl *workload, seed int64) (map[string]float64, error) {
	p := make(map[string]float64)

	for _, it := range e.items {
		src := []byte(it.Src)
		start := time.Now()
		toks, _ := lexer.Scan(src)
		p["lexer.scan_ns"] += float64(time.Since(start))
		p["lexer.tokens"] += float64(len(toks))
	}

	if _, unit, err := probeUnit(e, anyItem); err != nil {
		return nil, err
	} else if unit != nil {
		if err := probeInterp(p, unit); err != nil {
			return nil, err
		}
		if err := probeCheckpoint(ctx, p, unit); err != nil {
			return nil, err
		}
		p["cli.startup_ms"] = probeStartup(ctx, e)
	}

	cached := func(it *runItem) bool { return it.Search.StateCache }
	if _, unit, err := probeUnit(e, cached); err != nil {
		return nil, err
	} else if unit != nil {
		if err := probeCache(p, unit, seed); err != nil {
			return nil, err
		}
	}

	distributed := func(it *runItem) bool { return it.Search.DistWorkers > 0 }
	if it, unit, err := probeUnit(e, distributed); err != nil {
		return nil, err
	} else if unit != nil {
		// The same search without the processes: what distribution is
		// measured against.
		sequential := it.Search
		sequential.DistWorkers = 0
		start := time.Now()
		if _, err := explore.ExploreContext(ctx, unit, sequential.options()); err != nil {
			return nil, err
		}
		p["dist.sequential_ns"] = float64(time.Since(start))
	}

	if wl.tool() == toolJob {
		if err := probeJobs(ctx, tr, p, e); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// probeInterp times one transition on both compiled tiers along the
// first-enabled schedule, then the state-identity operations and Fork
// on the state probePrefix steps in.
func probeInterp(p map[string]float64, unit *cfg.Unit) error {
	res, err := interp.Resolve(unit)
	if err != nil {
		return err
	}
	for _, tier := range []struct {
		kind   interp.EngineKind
		metric string
	}{
		{interp.EngineBytecode, "interp.step_ns"},
		{interp.EngineSlots, "interp.step_ns.slots"},
	} {
		m, err := res.NewMachine(tier.kind)
		if err != nil {
			return err
		}
		walk(m, probeSteps/10, firstEnabled, nil) // warm
		start := time.Now()
		walk(m, probeSteps, firstEnabled, nil)
		p[tier.metric] = float64(time.Since(start)) / probeSteps
	}

	sys := res.NewBytecodeSystem()
	sys.SetStateHashing(true)
	walk(sys, probePrefix, firstEnabled, nil)
	var buf []byte
	p["interp.fingerprint_ns"] = perCall(probeCalls, func() { buf = sys.AppendFingerprint(buf[:0]) })
	p["interp.fingerprint_bytes"] = float64(len(buf))
	var h uint64
	p["interp.statehash_ns"] = perCall(probeCalls, func() { h ^= sys.StateHash() })
	var fork *interp.System
	p["interp.fork_ns"] = perCall(probeCalls, func() { fork = sys.Fork() })
	_, _ = h, fork
	return nil
}

// probeCheckpoint cuts a search by budget and times the codec on the
// frontier it leaves; the same snapshot, as a worker's result frame,
// feeds the dist frame probes.
func probeCheckpoint(ctx context.Context, p map[string]float64, unit *cfg.Unit) error {
	rep, err := explore.ExploreContext(ctx, unit, explore.Options{MaxStates: probeSnapshot, Workers: clients})
	if err != nil {
		return err
	}
	snap := rep.Snapshot()
	if snap == nil {
		return nil // the whole search fits the budget: no frontier to encode
	}
	var data []byte
	p["explore.checkpoint.encode_ns"] = perCall(probeSlow, func() { data, err = snap.Encode() })
	if err != nil {
		return err
	}
	p["explore.checkpoint.bytes"] = float64(len(data))
	p["explore.checkpoint.decode_ns"] = perCall(probeSlow, func() { _, err = explore.DecodeSnapshot(data) })
	if err != nil {
		return err
	}

	raw, err := json.Marshal(rep.WireSnapshot())
	if err != nil {
		return err
	}
	frame := &dist.Message{Type: dist.MsgResult, Batch: 1, Snapshot: raw, Cause: int(rep.Cause)}
	var wire bytes.Buffer
	p["dist.frame_write_ns"] = perCall(probeSlow, func() {
		wire.Reset()
		err = dist.WriteFrame(&wire, frame)
	})
	if err != nil {
		return err
	}
	p["dist.frame_bytes"] = float64(wire.Len())
	p["dist.frame_read_ns"] = perCall(probeSlow, func() { _, err = dist.ReadFrame(bytes.NewReader(wire.Bytes())) })
	return err
}

// probeCache harvests fingerprints from seeded random walks over the
// workload's first cached item and replays them into a fresh cache:
// once to insert, once more to hit.
func probeCache(p map[string]float64, unit *cfg.Unit, seed int64) error {
	m, err := interp.NewMachine(unit, interp.EngineBytecode)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var keys [][]byte
	var buf []byte
	walk(m, probeHarvest, func(enabled []int) int { return enabled[rng.Intn(len(enabled))] }, func(m interp.Machine) {
		buf = m.AppendFingerprint(buf[:0])
		if !seen[string(buf)] {
			seen[string(buf)] = true
			keys = append(keys, append([]byte(nil), buf...))
		}
	})
	if len(keys) == 0 {
		return nil
	}
	cache := statecache.New(statecache.Config{})
	visitAll := func() float64 {
		start := time.Now()
		for _, k := range keys {
			cache.Visit(k, 0)
		}
		return float64(time.Since(start)) / float64(len(keys))
	}
	p["statecache.visit_insert_ns"] = visitAll()
	p["statecache.visit_hit_ns"] = visitAll()
	if st := cache.Stats(); st.Inserts != int64(len(keys)) || st.Hits != int64(len(keys)) {
		return fmt.Errorf("cache probe: %d keys gave %d inserts and %d hits", len(keys), st.Inserts, st.Hits)
	}
	return nil
}

// probeStartup is the floor under every verisoft item: the median wall
// time of a cold process on a one-process, one-send program.
func probeStartup(ctx context.Context, e *env) float64 {
	file := filepath.Join(e.dir, "one-send.mc")
	if err := os.WriteFile(file, []byte(programs["one-send"]()), 0o644); err != nil {
		return 0
	}
	var ms sample
	for i := 0; i < probeSlow; i++ {
		if res := runChild(ctx, itemTimeout, e.bin[toolVerisoft], file); res.err == nil {
			ms = append(ms, float64(res.wall)/float64(time.Millisecond))
		}
	}
	return ms.median()
}

// probeJobs takes the job-path probes: the journal's atomic write, the
// request parser, the health endpoint's round trip, and each mix item's
// stand-alone compile + search (spans under tr) — the part of a job's
// latency that is the job's own work.
func probeJobs(ctx context.Context, tr *tracer, p map[string]float64, e *env) error {
	var err error
	block := bytes.Repeat([]byte{'x'}, 4096)
	file := filepath.Join(e.dir, "probe-4k")
	var writes sample
	for i := 0; i < probeSlow; i++ {
		writes = append(writes, perCall(1, func() { err = atomicio.WriteFile(file, block, 0o644) }))
		if err != nil {
			return err
		}
	}
	p["atomicio.write_ns"] = writes.median()

	bodies, err := jobBodies(e.items)
	if err != nil {
		return err
	}
	p["jobs.parse_request_ns"] = perCall(probeCalls, func() { _, err = jobs.ParseRequest(bodies[0]) })
	if err != nil {
		return err
	}

	s, err := openJobServer(e.newDataDir(), nil)
	if err != nil {
		return err
	}
	cl := newJobClient(s.srv.URL)
	var rtt sample
	for i := 0; i < probeCalls && err == nil; i++ {
		start := time.Now()
		var resp *http.Response
		if resp, err = cl.http.Get(s.srv.URL + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rtt = append(rtt, float64(time.Since(start))/float64(time.Microsecond))
		}
	}
	cl.close()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p["http.healthz_rtt_us"] = rtt.median()

	for i := range e.items {
		it := &e.items[i]
		for _, t := range []*tracer{nil, tr} { // once to warm, once recorded
			if _, err := inProcess(ctx, t, e.bin[toolVerisoft], it); err != nil {
				return fmt.Errorf("stand-alone %s: %w", it.Name, err)
			}
		}
	}
	return nil
}
