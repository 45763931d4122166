package explore

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/obs"
	"reclose/internal/progs"
)

// cacheDigest renders what every configuration of a cached search must
// agree on: the terminal and incident leaf counters plus the multiset
// of incident samples (kind, depth, message). Sample *decision
// sequences* are left out: when several routes reach a cached state,
// which duplicate route gets pruned depends on arrival order, so the
// surviving incident paths vary with the schedule even though their
// count and endpoints do not. (States/Paths/CachePrunes are also left
// out: the contract allows them to vary with the schedule in general,
// even though they do not on the loop-free models used here.)
func cacheDigest(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "terminated=%d deadlocks=%d violations=%d traps=%d divergences=%d\n",
		rep.Terminated, rep.Deadlocks, rep.Violations, rep.Traps, rep.Divergences)
	lines := make([]string, 0, len(rep.Samples))
	for _, in := range rep.Samples {
		lines = append(lines, fmt.Sprintf("%s depth=%d msg=%q", in.Kind, in.Depth, in.Msg))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return b.String()
}

// incidentSet renders the distinct incidents of a report — what pruning
// may never change relative to a stateless search (pruning can drop
// duplicate routes to an incident state, never the incident itself).
func incidentSet(rep *Report) string {
	seen := map[string]bool{}
	for _, in := range rep.Samples {
		seen[fmt.Sprintf("%s|%d|%s", in.Kind, in.Depth, in.Msg)] = true
	}
	lines := make([]string, 0, len(seen))
	for s := range seen {
		lines = append(lines, s)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func mustClose(t *testing.T, src string) *cfg.Unit {
	t.Helper()
	closed, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatalf("CloseSource: %v", err)
	}
	return closed
}

// TestShardedCacheEquivalence is the tentpole contract: StateCache now
// composes with the parallel engine. Across Workers {0,2,4} ×
// SnapshotSpill × shards {1,8} (run under -race by verify.sh), a
// cached search reports identical terminated/deadlock/violation/trap
// counters and identical incident samples; relative to the stateless
// search, the distinct incident set is unchanged (pruning is sound).
// On the diamond-shaped pipeline the cache must actually prune.
func TestShardedCacheEquivalence(t *testing.T) {
	cases := map[string]string{
		"pipeline-2-2":   progs.Pipeline(2, 2),
		"philosophers-3": progs.Philosophers(3),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			closed := mustClose(t, src)
			base := Options{POR: POROff, NoSleep: true, MaxIncidents: 1 << 20}

			stateless, err := Explore(closed, base)
			if err != nil {
				t.Fatalf("stateless Explore: %v", err)
			}

			ref := base
			ref.StateCache = true
			ref.CacheShards = 1
			seqCached, err := Explore(closed, ref)
			if err != nil {
				t.Fatalf("sequential cached Explore: %v", err)
			}
			if name == "pipeline-2-2" {
				if seqCached.CachePrunes == 0 {
					t.Fatalf("no cache prunes on the diamond pipeline: %s", seqCached)
				}
				if seqCached.States >= stateless.States {
					t.Errorf("cache did not shrink the search: cached %d states, stateless %d",
						seqCached.States, stateless.States)
				}
			}
			if got, want := incidentSet(seqCached), incidentSet(stateless); got != want {
				t.Fatalf("cached incident set diverged from stateless:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			want := cacheDigest(seqCached)

			for _, workers := range []int{0, 2, 4} {
				for _, spill := range []bool{false, true} {
					for _, shards := range []int{1, 8} {
						opt := base
						opt.StateCache = true
						opt.CacheShards = shards
						opt.Workers = workers
						opt.SnapshotSpill = spill
						label := fmt.Sprintf("workers=%d spill=%t shards=%d", workers, spill, shards)
						rep, err := Explore(closed, opt)
						if err != nil {
							t.Fatalf("%s: Explore: %v", label, err)
						}
						if rep.Incomplete {
							t.Fatalf("%s: search did not complete: %s", label, rep)
						}
						if rep.Workers != workers {
							t.Errorf("%s: Report.Workers = %d, want %d", label, rep.Workers, workers)
						}
						if rep.CachePrunes == 0 && seqCached.CachePrunes > 0 {
							t.Errorf("%s: CachePrunes = 0, sequential cached run pruned %d",
								label, seqCached.CachePrunes)
						}
						if got := cacheDigest(rep); got != want {
							t.Errorf("%s: diverged from sequential cached run:\n--- got ---\n%s--- want ---\n%s",
								label, got, want)
						}
					}
				}
			}
		})
	}
}

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
		if got, want := cacheDigest(rep), cacheDigest(normal); got != want {
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
		if got, want := incidentSet(rep), incidentSet(stateless); got != want {
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
