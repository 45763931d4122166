package explore

import (
	"fmt"
	"testing"

	"reclose/internal/obs"
	"reclose/internal/progs"
)

// TestCacheCollisionSoundness forces every fingerprint onto one hash
// value. With hash-only keys (the old engine) the second state ever
// visited would be pruned and the philosophers' deadlock masked; with
// full-fingerprint keys the run is identical to one under the default
// hash, collisions merely cost bucket scans.
func TestCacheCollisionSoundness(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	base := Options{StateCache: true, MaxIncidents: 1 << 20}

	normal, err := Explore(closed, base)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if normal.Deadlocks == 0 {
		t.Fatalf("philosophers baseline found no deadlock: %s", normal)
	}

	for _, workers := range []int{0, 2} {
		opt := base
		opt.Workers = workers
		opt.testCacheHash = func([]byte) uint64 { return 42 }
		rep, err := Explore(closed, opt)
		if err != nil {
			t.Fatalf("workers=%d: Explore: %v", workers, err)
		}
		if rep.Deadlocks != normal.Deadlocks {
			t.Errorf("workers=%d: deadlocks = %d under colliding hash, want %d",
				workers, rep.Deadlocks, normal.Deadlocks)
		}
		if got, want := digest(rep, sameCounters), digest(normal, sameCounters); got != want {
			t.Errorf("workers=%d: colliding-hash run diverged:\n--- got ---\n%s--- want ---\n%s",
				workers, got, want)
		}
		if rep.cacheSum == nil || rep.cacheSum.Entries <= 1 {
			t.Errorf("workers=%d: cache summary %+v — distinct states must all be stored despite equal hashes",
				workers, rep.cacheSum)
		}
	}
}

// depthRevisitSrc is the depth-bound regression model: VS_toss outcome
// 0 (explored first) reaches the join state only at depth 4, where
// MaxDepth=5 truncates the suffix before the assertion; outcome 1
// reaches the *same* state at depth 0. A cache that ignores depth
// prunes the shallow revisit and never reports the violation; the
// depth-aware cache re-expands it.
const depthRevisitSrc = `
sem s = 0;

proc p() {
	var t = VS_toss(1);
	if (t == 0) {
		signal(s);
		wait(s);
		signal(s);
		wait(s);
	}
	t = 0;
	signal(s);
	VS_assert(t == 1);
}

process p;
`

func TestCacheDepthRevisitRegression(t *testing.T) {
	closed := mustClose(t, depthRevisitSrc)
	base := Options{MaxDepth: 5, MaxIncidents: 16}

	// Without the cache the violation is reachable (via the shallow
	// branch) even under the depth bound.
	plain, err := Explore(closed, base)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if plain.Violations != 1 {
		t.Fatalf("uncached run: violations = %d, want 1 (model broken): %s", plain.Violations, plain)
	}
	if plain.DepthHits == 0 {
		t.Fatalf("uncached run: no depth hits — the deep branch must be truncated: %s", plain)
	}

	for _, workers := range []int{0, 2} {
		opt := base
		opt.StateCache = true
		opt.Workers = workers
		rep, err := Explore(closed, opt)
		if err != nil {
			t.Fatalf("workers=%d: Explore: %v", workers, err)
		}
		if rep.Violations != 1 {
			t.Errorf("workers=%d: cached run lost the violation behind the depth bound: violations = %d, want 1: %s",
				workers, rep.Violations, rep)
		}
		if in := rep.FirstIncident(LeafViolation); in == nil {
			t.Errorf("workers=%d: no violation sample recorded", workers)
		}
	}
}

// TestCacheEvictionSoundness squeezes the cache into a budget far
// smaller than the state space: entries must be evicted, the search
// must still complete, and the distinct incident set must match the
// stateless search exactly — eviction degrades pruning, never
// soundness.
func TestCacheEvictionSoundness(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	base := Options{POR: POROff, NoSleep: true, MaxIncidents: 1 << 20}
	stateless, err := Explore(closed, base)
	if err != nil {
		t.Fatalf("stateless Explore: %v", err)
	}
	for _, workers := range []int{0, 2} {
		opt := base
		opt.StateCache = true
		opt.CacheShards = 1
		opt.MaxCacheBytes = 4 << 10
		opt.Workers = workers
		rep, err := Explore(closed, opt)
		if err != nil {
			t.Fatalf("workers=%d: Explore: %v", workers, err)
		}
		if rep.Incomplete {
			t.Fatalf("workers=%d: search did not complete: %s", workers, rep)
		}
		if rep.cacheSum == nil || rep.cacheSum.Evictions == 0 {
			t.Fatalf("workers=%d: no evictions under a %d-byte budget (cache %+v)",
				workers, opt.MaxCacheBytes, rep.cacheSum)
		}
		if rep.cacheSum.Bytes > opt.MaxCacheBytes {
			t.Errorf("workers=%d: cache holds %d bytes, budget %d",
				workers, rep.cacheSum.Bytes, opt.MaxCacheBytes)
		}
		if got, want := digest(rep, sameIncidents), digest(stateless, sameIncidents); got != want {
			t.Errorf("workers=%d: incident set diverged under eviction:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, want)
		}
		if rep.Deadlocks == 0 {
			t.Errorf("workers=%d: evicting cache lost the deadlock: %s", workers, rep)
		}
	}
}

// TestCacheMetricsAndSnapshotSummary checks the observability wiring:
// registry cache counters equal the run's cache summary, hits equal the
// report's CachePrunes (every prune is exactly one cache hit), and the
// summary itself is attached to the report.
func TestCacheMetricsAndSnapshotSummary(t *testing.T) {
	closed := mustClose(t, progs.Pipeline(2, 2))
	for _, workers := range []int{0, 2} {
		reg := obs.New()
		opt := Options{
			POR: POROff, NoSleep: true,
			StateCache: true, CacheShards: 8,
			Workers: workers, Obs: reg,
		}
		rep, err := Explore(closed, opt)
		if err != nil {
			t.Fatalf("workers=%d: Explore: %v", workers, err)
		}
		sum := rep.cacheSum
		if sum == nil {
			t.Fatalf("workers=%d: no cache summary on a cached run", workers)
		}
		if sum.Shards != 8 {
			t.Errorf("workers=%d: summary shards = %d, want 8", workers, sum.Shards)
		}
		if sum.Hits != rep.CachePrunes {
			t.Errorf("workers=%d: cache hits = %d, CachePrunes = %d — must be equal",
				workers, sum.Hits, rep.CachePrunes)
		}
		if got := reg.Counter(MetricCacheHits).Load(); got != sum.Hits {
			t.Errorf("workers=%d: registry hits = %d, summary %d", workers, got, sum.Hits)
		}
		if got := reg.Counter(MetricCacheMisses).Load(); got != sum.Misses {
			t.Errorf("workers=%d: registry misses = %d, summary %d", workers, got, sum.Misses)
		}
		if got := reg.Gauge(MetricCacheEntries).Load(); got != sum.Entries {
			t.Errorf("workers=%d: registry entries = %d, summary %d", workers, got, sum.Entries)
		}
		if sum.Entries == 0 || sum.Misses == 0 {
			t.Errorf("workers=%d: empty cache after a cached search: %+v", workers, sum)
		}
		var occ int64
		for i := 0; i < 8; i++ {
			occ += reg.Gauge(fmt.Sprintf("explore.cache.shard.%d.entries", i)).Load()
		}
		if occ != sum.Entries {
			t.Errorf("workers=%d: shard gauges sum to %d, entries = %d", workers, occ, sum.Entries)
		}
	}
}
