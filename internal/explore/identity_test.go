package explore_test

import (
	"testing"

	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/fiveess"
	"reclose/internal/lockserver"
	"reclose/internal/obs"
	"reclose/internal/statecache"
)

// This file pins what a state's identity costs and what the state
// cache does with it, on the benchmark's own programs, by counts the
// run produces itself — none of it is a timing.

func exploreCounted(t *testing.T, src string, opt explore.Options) (*explore.Report, *obs.Registry) {
	t.Helper()
	u, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	opt.Obs = obs.New()
	rep, err := explore.Explore(u, opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return rep, opt.Obs
}

// TestKeyCostsWhatTheTransitionChanged bounds the process segments
// rendered per assembled key. A transition runs one process, so the
// ratio is 1 plus what restores, resets and cross-process pointer
// stores add; rendering every component would make it the process count
// (5 on the lock server, whose key has 13 components with the objects;
// 8 on the 5ESS model). The 5ESS handlers store through pointers into
// their own frames on every call: if those invalidated the other
// processes the ratio there would be several, not 1.
func TestKeyCostsWhatTheTransitionChanged(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		opt   explore.Options
		bound float64
	}{
		{"lock-c4-r2", lockserver.Source(lockserver.Config{Clients: 4, Rounds: 2}),
			explore.Options{StateCache: true}, 1.5},
		{"5ess-medium", fiveess.Source(fiveess.Scale("medium")),
			explore.Options{StateCache: true, MaxDepth: 30}, 1.1},
		{"lock-c3-r2-greedy.liveness", lockserver.Source(lockserver.Config{Clients: 3, Rounds: 2, GreedyClient: true}),
			explore.Options{StateCache: true, Liveness: true, MaxDepth: 200}, 1.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, reg := exploreCounted(t, tc.src, tc.opt)
			keys := reg.Counter(explore.MetricInterpKeys).Load()
			segs := reg.Counter(explore.MetricInterpKeySegments).Load()
			if keys == 0 || keys > rep.States+rep.RedStates+rep.ReplaySteps {
				t.Fatalf("%d keys assembled for %d states", keys, rep.States)
			}
			if ratio := float64(segs) / float64(keys); ratio > tc.bound {
				t.Errorf("%d segments rendered for %d keys: %.3f per key, want at most %.2f", segs, keys, ratio, tc.bound)
			}
			// One identity per state: the blue stack, the cache and the
			// red search share a key and a hash, so the two counts agree.
			if hashes := reg.Counter(explore.MetricInterpHashIncr).Load(); hashes != keys {
				t.Errorf("%d state hashes for %d keys, want one of each per state", hashes, keys)
			}
		})
	}
}

// TestBoundedCachePinned pins the benchmark's bounded-cache item
// (lock-c4-r2 -state-cache -cache-mem 8388608 -max-states 200000) at the
// numbers benchmark/expected.json and the previous cache give it. They
// follow from the order of evictions, so they hold only while a key's
// bytes and routing hash, the cost MaxBytes charges for it, and the
// clock and free-list order are all what they were.
func TestBoundedCachePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 200 000 states")
	}
	rep, reg := exploreCounted(t, lockserver.Source(lockserver.Config{Clients: 4, Rounds: 2}),
		explore.Options{StateCache: true, MaxCacheBytes: 8 << 20, MaxStates: 200000})
	if rep.States != 200000 || rep.Transitions != 113830 || rep.Paths != 86170 {
		t.Errorf("states/transitions/paths = %d/%d/%d, want 200000/113830/86170", rep.States, rep.Transitions, rep.Paths)
	}
	for _, c := range []struct {
		metric string
		want   int64
	}{
		{explore.MetricCacheEvictions, 109355},
		{explore.MetricCacheInserts, 130125},
		{explore.MetricCacheHits, 69829},
		{explore.MetricCacheReexpands, 0},
	} {
		if got := reg.Counter(c.metric).Load(); got != c.want {
			t.Errorf("%s = %d, want %d", c.metric, got, c.want)
		}
	}
}

// TestBoundedCacheHoldsWhatItCarves runs the same item on a cache of the
// test's own and reads what its shards carved. At the budget a key goes
// where an evicted one of its size was, so the shards hold little more
// than the live keys: when an evicted slot kept its piece and a longer
// key carved another, this run carved 17.8 MB for 6.4 MB of live keys
// under its 8 MiB budget. The counts are TestBoundedCachePinned's.
func TestBoundedCacheHoldsWhatItCarves(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 200 000 states")
	}
	cache := statecache.New(statecache.Config{MaxBytes: 8 << 20})
	rep, _ := exploreCounted(t, lockserver.Source(lockserver.Config{Clients: 4, Rounds: 2}),
		explore.Options{StateCache: true, Cache: cache, MaxStates: 200000})
	st := cache.Stats()
	if rep.Transitions != 113830 || st.Evictions != 109355 {
		t.Errorf("%d transitions, %d evictions, want 113830, 109355", rep.Transitions, st.Evictions)
	}
	if limit := st.Stored*5/4 + int64(st.Shards)<<16; st.Carved > limit {
		t.Errorf("%d bytes carved for %d bytes of live keys, want at most %d", st.Carved, st.Stored, limit)
	}
}
