// Package bench holds the three benchmarks that are a tool's input, not a
// record: scripts/profile.sh takes its CPU profiles from them (two
// searches and one closing). Time is measured by `go run ./benchmark`
// (benchmark/README.md) and counts are asserted by `go test ./...`;
// ledger/PR-23.txt maps every benchmark this file used to hold to the
// row or test that owns its number now.
package bench

import (
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/fiveess"
	"reclose/internal/leaderelect"
	"reclose/internal/lockserver"
	"reclose/internal/obs"
	"reclose/internal/progs"
	"reclose/internal/synth"
)

func mustCloseB(b *testing.B, src string) *cfg.Unit {
	b.Helper()
	u, _, err := core.CloseSource(src)
	if err != nil {
		b.Fatal(err)
	}
	return u
}

// exploreB runs one search with a fresh registry attached, as every
// cmd/verisoft run has one: the instruments' cost is part of what a
// profile of the CLI's search shows.
func exploreB(b *testing.B, u *cfg.Unit, opt explore.Options) *explore.Report {
	b.Helper()
	opt.Obs = obs.New()
	rep, err := explore.Explore(u, opt)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkBacktrack measures the four sequential searches of the
// benchmark's explore_stateless workload, in process: a wide,
// toss-heavy tree (5ESS medium to depth 28), the same model under
// dynamic POR, a deep one cut by its state budget (5ESS large to depth
// 500) and a narrow deadlocking one (seven philosophers). replaysteps
// is the per-run total of re-executed transitions — one per backtrack
// when every path begins by an undo — and allocs/op shows the trail and
// the frames it holds are reused. scripts/profile.sh profiles these
// rows.
func BenchmarkBacktrack(b *testing.B) {
	for _, c := range []struct {
		name string
		src  string
		opt  explore.Options
	}{
		{"5ess-medium-d28", fiveess.Source(fiveess.Scale("medium")), explore.Options{MaxDepth: 28}},
		{"5ess-medium-dynamic-d40", fiveess.Source(fiveess.Scale("medium")), explore.Options{MaxDepth: 40, POR: explore.PORDynamic}},
		{"5ess-large-d500-s200000", fiveess.Source(fiveess.Scale("large")), explore.Options{MaxDepth: 500, MaxStates: 200000}},
		{"phil-7", progs.Philosophers(7), explore.Options{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			closed := mustCloseB(b, c.src)
			var replayed, trans int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := exploreB(b, closed, c.opt)
				replayed = rep.ReplaySteps
				trans = rep.Transitions
			}
			b.ReportMetric(float64(replayed), "replaysteps")
			b.ReportMetric(float64(trans), "transitions")
		})
	}
}

// BenchmarkStateful measures the six fixed items of the benchmark's
// explore_stateful workload, in process and with the CLI's options: the
// lock server cached, unbounded and under an 8 MiB budget that evicts,
// 5ESS medium cached to depth 30, and three liveness searches over the
// cache. B/op is what the stored states weigh; scripts/profile.sh
// BenchmarkStateful profiles these rows.
func BenchmarkStateful(b *testing.B) {
	lock := lockserver.Source(lockserver.Config{Clients: 4, Rounds: 2})
	for _, c := range []struct {
		name string
		src  string
		opt  explore.Options
	}{
		{"lock-c4-r2.cache", lock, explore.Options{StateCache: true}},
		{"5ess-medium.cache.d30", fiveess.Source(fiveess.Scale("medium")), explore.Options{StateCache: true, MaxDepth: 30}},
		{"lock-c4-r2.cache-mem8MiB.s200000", lock, explore.Options{StateCache: true, MaxCacheBytes: 8 << 20, MaxStates: 200000}},
		{"lock-c3-r2-greedy.cache.liveness.d200", lockserver.Source(lockserver.Config{Clients: 3, Rounds: 2, GreedyClient: true}),
			explore.Options{StateCache: true, Liveness: true, MaxDepth: 200}},
		{"leader-n6-seeded.cache.liveness", leaderelect.Source(leaderelect.Config{Nodes: 6, SeedLivelock: true}),
			explore.Options{StateCache: true, Liveness: true}},
		{"leader-n6.cache.liveness", leaderelect.Source(leaderelect.Config{Nodes: 6}),
			explore.Options{StateCache: true, Liveness: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			closed := mustCloseB(b, c.src)
			c.opt.MaxIncidents = 4
			var trans int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trans = exploreB(b, closed, c.opt).Transitions
			}
			b.ReportMetric(float64(trans), "transitions")
		})
	}
}

// BenchmarkClose closes the five items of the benchmark's close_scale
// workload in process, from source text to closed unit: parse, check,
// normalize, build the CFGs, analyze and close. B/op is what closing one
// item allocates; scripts/profile.sh BenchmarkClose profiles these rows.
func BenchmarkClose(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"synth-straight-n20000", synth.Program(synth.StraightLine, 20000)},
		{"synth-branchy-n20000", synth.Program(synth.Branchy, 20000)},
		{"synth-loopy-n6000", synth.Program(synth.Loopy, 6000)},
		{"synth-manyprocs-n50000", synth.Program(synth.ManyProcs, 50000)},
		{"5ess-h16-l3-f2000-c8-stub", fiveess.Source(fiveess.Config{Handlers: 16, Lines: 3, Features: 2000, Chain: 8, WithStub: true})},
	} {
		b.Run(c.name, func(b *testing.B) {
			var nodes int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nodes, _ = mustCloseB(b, c.src).Size()
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}
