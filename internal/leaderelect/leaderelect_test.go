package leaderelect_test

import (
	"bytes"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/leaderelect"
	"reclose/internal/statecache"
)

func closeRing(t *testing.T, cfg leaderelect.Config) *cfg.Unit {
	t.Helper()
	closed, _, err := core.CloseSource(leaderelect.Source(cfg))
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := core.VerifyClosed(closed); err != nil {
		t.Fatalf("VerifyClosed: %v", err)
	}
	return closed
}

// TestCleanElectionNoIncidents explores the clean ring: some node is
// always elected (node 0 always stands), every path terminates, and
// liveness checking stays quiet.
func TestCleanElectionNoIncidents(t *testing.T) {
	u := closeRing(t, leaderelect.Config{Nodes: 3})
	rep, err := explore.Explore(u, explore.Options{Liveness: true, MaxDepth: 200})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Incidents() != 0 {
		t.Fatalf("incidents in clean election: %s\nsamples: %v", rep, rep.Samples)
	}
	if rep.Terminated == 0 {
		t.Fatalf("no terminating runs: %s", rep)
	}
}

// TestSeededLivelockFound is the headline acceptance check: the
// deferral variant livelocks, the nested DFS reports it, and the lasso
// witness replays — the stem and the full lasso end in the same state.
func TestSeededLivelockFound(t *testing.T) {
	u := closeRing(t, leaderelect.Config{Nodes: 3, SeedLivelock: true})
	rep, err := explore.Explore(u, explore.Options{Liveness: true, MaxDepth: 120})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Livelocks == 0 {
		t.Fatalf("seeded election livelock not found: %s", rep)
	}
	in := rep.FirstIncident(explore.LeafLivelock)
	if in == nil {
		t.Fatal("no livelock sample recorded")
	}
	if in.CycleStart <= 0 || in.CycleStart >= len(in.Decisions) {
		t.Fatalf("degenerate lasso split %d of %d decisions", in.CycleStart, len(in.Decisions))
	}
	stemSys, out, err := explore.Replay(u, in.Decisions[:in.CycleStart], nil)
	if err != nil || out != nil {
		t.Fatalf("stem replay: err=%v out=%v", err, out)
	}
	fullSys, out, err := explore.Replay(u, in.Decisions, nil)
	if err != nil || out != nil {
		t.Fatalf("lasso replay: err=%v out=%v", err, out)
	}
	if !bytes.Equal(stemSys.AppendFingerprint(nil), fullSys.AppendFingerprint(nil)) {
		t.Errorf("lasso does not close back to the stem state:\n%s", in)
	}
}

// TestSeededLivelockWithoutLivenessSilent pins that the seed only shows
// up under -liveness: off, the same system reports no new incident kind
// (the deferral paths just hit the depth bound).
func TestSeededLivelockWithoutLivenessSilent(t *testing.T) {
	u := closeRing(t, leaderelect.Config{Nodes: 3, SeedLivelock: true})
	// Without cycle detection the deferral laps unroll to the depth
	// bound path by path; keep the bounds tight so the blowup stays
	// test-sized.
	rep, err := explore.Explore(u, explore.Options{MaxDepth: 40, MaxStates: 50000})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Livelocks != 0 {
		t.Fatalf("livelocks with liveness off: %s", rep)
	}
	if rep.DepthHits == 0 && !rep.Incomplete {
		t.Errorf("deferral paths should hit the depth bound: %s", rep)
	}
}

// TestLivelockAcrossConfigurations checks the verdict composes with the
// parallel driver and the state cache.
func TestLivelockAcrossConfigurations(t *testing.T) {
	u := closeRing(t, leaderelect.Config{Nodes: 3, SeedLivelock: true})
	for _, opt := range []explore.Options{
		{Liveness: true, MaxDepth: 120, Workers: 2},
		{Liveness: true, MaxDepth: 120, StateCache: true},
		{Liveness: true, MaxDepth: 120, StateCache: true, Cache: statecache.New(statecache.Config{Shards: 4}), Workers: 4},
	} {
		rep, err := explore.Explore(u, opt)
		if err != nil {
			t.Fatalf("explore(workers=%d cache=%t): %v", opt.Workers, opt.StateCache, err)
		}
		if rep.Livelocks == 0 {
			t.Errorf("workers=%d cache=%t: seeded livelock not found: %s",
				opt.Workers, opt.StateCache, rep)
		}
	}
}

// TestDeterministic checks the generator is a pure function of its
// configuration.
func TestDeterministic(t *testing.T) {
	a := leaderelect.Source(leaderelect.Config{Nodes: 4, SeedLivelock: true})
	b := leaderelect.Source(leaderelect.Config{Nodes: 4, SeedLivelock: true})
	if a != b {
		t.Error("generator not deterministic")
	}
	small := leaderelect.Source(leaderelect.Config{Nodes: 2})
	large := leaderelect.Source(leaderelect.Config{Nodes: 6})
	if len(small) >= len(large) {
		t.Error("ring does not grow with Nodes")
	}
}
