package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/interp"
	"reclose/internal/lockserver"
	"reclose/internal/obs"
	"reclose/internal/randprog"
	"reclose/internal/statecache"
)

// This file tests what a search stores of a state: the compiled
// machine's key — one segment-table id per component, as a uvarint —
// against the fingerprint it stands for, which is what the reference
// stores; interp's machine judge holds the key to the fingerprint.

// keyCases are the lattice's programs and n random programs more.
func keyCases(t *testing.T, n int) map[string]*cfg.Unit {
	t.Helper()
	cases := closedPrograms(t)
	for seed := int64(100); seed < 100+int64(n); seed++ {
		src := randprog.Generate(rand.New(rand.NewSource(seed)), randprog.Config{Processes: 2 + int(seed%2), MaxStmts: 6, Helpers: 1})
		cases[fmt.Sprintf("rand-%d", seed)] = mustClose(t, src)
	}
	return cases
}

// cacheInstruments renders every explore.cache.* counter and gauge of a
// run's registry but the three that say how the keys are held, which the
// two machines do differently.
func cacheInstruments(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Counters, Gauges map[string]int64 }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, m := range []map[string]int64{doc.Counters, doc.Gauges} {
		for name, v := range m {
			switch {
			case !strings.HasPrefix(name, "explore.cache."):
			case name == MetricCacheStored, name == MetricCacheSegments, name == MetricCacheSegBytes:
			default:
				rows = append(rows, fmt.Sprintf("%s=%d\n", name, v))
			}
		}
	}
	sort.Strings(rows)
	return strings.Join(rows, "")
}

// TestStateKeyEngineReports runs the reference, which stores
// fingerprints, against the compiled machine, which stores ids, with the
// cache unbounded and under a budget of a few entries a shard: the
// reports and every instrument of the cache but the storage's own are
// the same, evictions included — the budget is charged the fingerprint's
// length whatever is stored.
func TestStateKeyEngineReports(t *testing.T) {
	n := 150
	if testing.Short() || raceEnabled {
		n = 10
	}
	var evictions int64
	for name, u := range keyCases(t, n) {
		for _, budget := range []int64{0, 6 << 10} {
			opt := Options{StateCache: true, MaxDepth: 30, MaxStates: 1500, MaxIncidents: 1 << 20}
			var want string
			for _, eng := range []interp.EngineKind{interp.EngineRef, interp.EngineBytecode} {
				opt.Engine, opt.Obs = eng, obs.New()
				opt.Cache = statecache.New(statecache.Config{Shards: 2, MaxBytes: budget})
				rep, err := Explore(u, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := digest(rep, identical) + cacheInstruments(t, opt.Obs)
				c := rep.cacheSum
				rendered := c.Bytes - entryOverhead*c.Entries
				if eng == interp.EngineRef {
					want = got
					if c.segments != 0 || c.stored != rendered {
						t.Fatalf("%s: the reference's cache does not hold what it is charged: %+v", name, c)
					}
					continue
				}
				if got != want {
					t.Fatalf("%s budget %d: bytecode differs from ref\n--- got ---\n%s--- want ---\n%s", name, budget, got, want)
				}
				if c.Entries > 0 && (c.segments == 0 || c.stored >= rendered) {
					t.Fatalf("%s: the compiled machine's keys are not shorter than they are charged: %+v", name, c)
				}
				evictions += c.Evictions
			}
		}
	}
	if evictions == 0 {
		t.Fatal("no budget evicted anything")
	}
}

// entryOverhead is statecache's: what an entry is charged beyond its
// fingerprint's length (-cache-mem's help states it).
const entryOverhead = 96

// TestCachedSearchMemory bounds what a cached search keeps instead of
// timing it. The lock server's 104 054 states cost 53.5 MB of
// allocation when a state was stored as its 310-byte fingerprint, 27.1
// MiB as 13 4-byte ids and a sleep suffix (62.8 bytes a state), and 20.8
// MiB as 13 uvarint ids (25.1 bytes); the text is held once, in a few
// hundred segments. The other half is the table's worst case, a
// component that never repeats a segment: a counter's states are a new
// segment each, and the table then holds what the fingerprints would
// have, no more.
func TestCachedSearchMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	u := mustClose(t, lockserver.Source(lockserver.Config{Clients: 4, Rounds: 2}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Explore(u, Options{StateCache: true, MaxIncidents: 4})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.cacheSum.Entries != 104054 {
		t.Fatalf("the search stored %d states, want 104054", rep.cacheSum.Entries)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 26<<20 {
		t.Errorf("the search allocated %.1f MiB, want at most 26", float64(b)/(1<<20))
	}
	if per := float64(rep.cacheSum.stored) / float64(rep.cacheSum.Entries); per > 32 {
		t.Errorf("the cache holds %.1f key bytes a state, want at most 32", per)
	}
	if rep.cacheSum.segments > 1000 {
		t.Errorf("%d segments in the table, want at most 1000", rep.cacheSum.segments)
	}

	u = mustClose(t, `
chan tick[1];
proc count() {
    var i;
    for (i = 0; i < 3000; i = i + 1) {
        send(tick, i);
        recv(tick, i);
    }
}
process count;
`)
	rep, err = Explore(u, Options{StateCache: true, MaxDepth: 10000})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.cacheSum
	rendered := st.Bytes - entryOverhead*st.Entries
	if st.Entries < 6000 || st.segments < st.Entries {
		t.Fatalf("the counter's states do not each bring a segment: %+v", st)
	}
	if st.segmentBytes > rendered {
		t.Errorf("the table holds %d bytes of text for %d rendered", st.segmentBytes, rendered)
	}
}
