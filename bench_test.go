// Package bench is the benchmark harness of the reproduction: one
// benchmark per experiment of DESIGN.md (the paper's figures and
// quantitative claims), plus substrate micro-benchmarks. Custom metrics
// carry the quantities the paper argues about (states, traces, nodes),
// while ns/op carries wall-clock cost.
//
// Run with:
//
//	go test -bench=. -benchmem
package bench

import (
	"fmt"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/codegen"
	"reclose/internal/core"
	"reclose/internal/dataflow"
	"reclose/internal/explore"
	"reclose/internal/fiveess"
	"reclose/internal/interp"
	"reclose/internal/leaderelect"
	"reclose/internal/lockserver"
	"reclose/internal/mgenv"
	"reclose/internal/obs"
	"reclose/internal/parser"
	"reclose/internal/progs"
	"reclose/internal/statecache"
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

func exploreB(b *testing.B, u *cfg.Unit, opt explore.Options) *explore.Report {
	b.Helper()
	rep, err := explore.Explore(u, opt)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// --- E1/E2: the worked figures -------------------------------------------

// BenchmarkFig2Transform measures closing the paper's Figure 2 procedure
// (parse + analyze + transform).
func BenchmarkFig2Transform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := core.CloseSource(progs.FigureP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Transform measures closing Figure 3's q.
func BenchmarkFig3Transform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := core.CloseSource(progs.FigureQ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Explore enumerates all 2^10 behaviors of the closed p and
// reports the trace count (the strict-upper-approximation blowup).
func BenchmarkFig2Explore(b *testing.B) {
	closed := mustCloseB(b, progs.FigureP)
	var paths int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := exploreB(b, closed, explore.Options{})
		paths = rep.Paths
	}
	b.ReportMetric(float64(paths), "paths")
}

// --- E3: linear-time closing ----------------------------------------------

// BenchmarkClosingScaling measures the transformation alone (front end
// excluded) against program size, per shape. The us/node metric staying
// flat as N grows is the paper's linearity claim.
func BenchmarkClosingScaling(b *testing.B) {
	for _, shape := range []synth.Shape{synth.StraightLine, synth.Branchy, synth.Loopy, synth.ManyProcs} {
		for _, n := range []int{200, 1000, 5000} {
			b.Run(fmt.Sprintf("%s/N=%d", shape, n), func(b *testing.B) {
				unit, err := core.CompileSource(synth.Program(shape, n))
				if err != nil {
					b.Fatal(err)
				}
				nodes, _ := unit.Size()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := core.Close(unit); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(nodes), "nodes")
				perNode := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(nodes)
				b.ReportMetric(perNode, "ns/node")
			})
		}
	}
}

// --- E4: naive environment vs transformation ------------------------------

// BenchmarkNaiveVsClosed explores the router workload naively closed at
// several domain sizes, and transformed. The states metric is the row
// the experiment reports: naive grows with D, closed does not.
func BenchmarkNaiveVsClosed(b *testing.B) {
	src := progs.RouterScaled(2, 2)
	const depth = 40
	for _, d := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("naive/D=%d", d), func(b *testing.B) {
			naive, _, err := mgenv.ComposeSource(src, d)
			if err != nil {
				b.Fatal(err)
			}
			var states int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Capped: the naive space at D >= 8 exceeds 2M states
				// (the experiment's point); the metric bottoms out at
				// the cap.
				rep := exploreB(b, naive, explore.Options{MaxDepth: depth, MaxStates: 2000000})
				states = rep.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
	b.Run("closed", func(b *testing.B) {
		closed := mustCloseB(b, src)
		var states int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep := exploreB(b, closed, explore.Options{MaxDepth: depth})
			states = rep.States
		}
		b.ReportMetric(float64(states), "states")
	})
}

// --- E5: Theorem 7 preservation --------------------------------------------

// BenchmarkPreservation measures how many states each side visits before
// the first incident (deadlock / violation) is found.
func BenchmarkPreservation(b *testing.B) {
	cases := []struct {
		name   string
		src    string
		domain int
	}{
		{"deadlock", progs.DeadlockProne, 4},
		{"assert", progs.AssertViolation, 4},
	}
	for _, c := range cases {
		b.Run(c.name+"/naive", func(b *testing.B) {
			naive, _, err := mgenv.ComposeSource(c.src, c.domain)
			if err != nil {
				b.Fatal(err)
			}
			var first int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := exploreB(b, naive, explore.Options{MaxDepth: 200})
				first = rep.StatesAtFirstIncident
			}
			b.ReportMetric(float64(first), "states-to-incident")
		})
		b.Run(c.name+"/closed", func(b *testing.B) {
			closed := mustCloseB(b, c.src)
			var first int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := exploreB(b, closed, explore.Options{MaxDepth: 200})
				first = rep.StatesAtFirstIncident
			}
			b.ReportMetric(float64(first), "states-to-incident")
		})
	}
}

// --- E6: the 5ESS-like case study ------------------------------------------

// BenchmarkFiveESSClose measures automatic closing of the synthetic
// switch application at each scale.
func BenchmarkFiveESSClose(b *testing.B) {
	for _, scale := range []string{"small", "medium", "large", "xlarge"} {
		b.Run(scale, func(b *testing.B) {
			src := fiveess.Source(fiveess.Scale(scale))
			var eliminated int
			for i := 0; i < b.N; i++ {
				_, st, err := core.CloseSource(src)
				if err != nil {
					b.Fatal(err)
				}
				eliminated = st.NodesEliminated
			}
			b.ReportMetric(float64(eliminated), "nodes-eliminated")
		})
	}
}

// BenchmarkFiveESSExplore measures bounded exploration throughput on
// the closed application, per POR mode. Every row is a *complete*
// search of its depth-bounded tree (the medium scale at MaxDepth 30;
// small exhausts outright): under a MaxStates truncation every mode
// executes exactly MaxStates−Paths transitions by construction, which
// hides the reduction the por=dynamic row exists to show. The
// transitions metric is the quantity dynamic POR shrinks; ns/op
// follows it.
func BenchmarkFiveESSExplore(b *testing.B) {
	cases := []struct {
		scale string
		opt   explore.Options
	}{
		{"small", explore.Options{MaxDepth: 500}},
		{"medium", explore.Options{MaxDepth: 30, MaxStates: 1 << 21}},
	}
	for _, c := range cases {
		closed := mustCloseB(b, fiveess.Source(fiveess.Scale(c.scale)))
		for _, por := range []explore.PORMode{explore.PORStatic, explore.PORDynamic} {
			b.Run(fmt.Sprintf("%s/por=%s", c.scale, por), func(b *testing.B) {
				var trans int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opt := c.opt
					opt.POR = por
					rep := exploreB(b, closed, opt)
					if rep.Incomplete {
						b.Fatalf("search truncated (states=%d): transitions are not comparable", rep.States)
					}
					trans = rep.Transitions
				}
				b.ReportMetric(float64(trans), "transitions")
			})
		}
	}
}

// BenchmarkDPOR is the dynamic-POR ablation on complete searches: the
// philosophers ring (whose static footprints make every fork
// potentially shared, so persistent sets degenerate) explored under
// static and dynamic POR, and under dynamic POR with priority-directed
// search. The transitions metric carries the reduction; backtracks
// counts the dynamically inserted backtrack points that replace the
// static over-approximation.
func BenchmarkDPOR(b *testing.B) {
	for _, n := range []int{5, 6} {
		closed := mustCloseB(b, progs.Philosophers(n))
		for _, mode := range []struct {
			name string
			opt  explore.Options
		}{
			{"static", explore.Options{POR: explore.PORStatic}},
			{"dynamic", explore.Options{POR: explore.PORDynamic}},
			{"dynamic+priority", explore.Options{POR: explore.PORDynamic, Search: explore.SearchPriority}},
		} {
			b.Run(fmt.Sprintf("phil-%d/%s", n, mode.name), func(b *testing.B) {
				var trans, backtracks int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opt := mode.opt
					opt.MaxIncidents = 1 << 20
					rep := exploreB(b, closed, opt)
					trans = rep.Transitions
					backtracks = rep.PorBacktracks
				}
				b.ReportMetric(float64(trans), "transitions")
				b.ReportMetric(float64(backtracks), "backtracks")
			})
		}
	}
}

// BenchmarkParallelExplore measures the layered work-stealing engine on
// the 5ESS medium workload at increasing worker counts. workers=1 is
// the parallel engine's own baseline (one worker paying the frontier
// overhead); speedup at higher counts requires physical cores — on a
// single-core machine the rows cost roughly the same wall time.
func BenchmarkParallelExplore(b *testing.B) {
	closed := mustCloseB(b, fiveess.Source(fiveess.Scale("medium")))
	run := func(b *testing.B, workers int, snapshot, withObs bool) {
		var trans, replayed int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt := explore.Options{
				MaxDepth: 500, MaxStates: 20000, Workers: workers,
				SnapshotSpill: snapshot,
			}
			if withObs {
				opt.Obs = obs.New()
			}
			rep := exploreB(b, closed, opt)
			trans = rep.Transitions
			replayed = rep.ReplaySteps
		}
		b.ReportMetric(float64(trans), "transitions")
		b.ReportMetric(float64(replayed), "replaysteps")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			run(b, workers, false, false)
		})
	}
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("snapshot/workers=%d", workers), func(b *testing.B) {
			run(b, workers, true, false)
		})
	}
	// The obs rows measure the enabled cost of the observability layer
	// (counter flushes at path boundaries, per-unit claim accounting);
	// the rows above, with Obs nil, are the disabled no-op path the <2%
	// regression criterion is pinned to.
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("obs/workers=%d", workers), func(b *testing.B) {
			run(b, workers, false, true)
		})
	}
}

// --- E7: partial-order reduction ablation ----------------------------------

// BenchmarkPORAblation explores dining philosophers with and without the
// reductions; the states metric shows the pruning.
func BenchmarkPORAblation(b *testing.B) {
	for _, n := range []int{3, 4} {
		src := progs.Philosophers(n)
		for _, mode := range []struct {
			name string
			opt  explore.Options
		}{
			{"full", explore.Options{POR: explore.POROff, NoSleep: true}},
			{"persistent", explore.Options{NoSleep: true}},
			{"persistent+sleep", explore.Options{}},
		} {
			b.Run(fmt.Sprintf("phil-%d/%s", n, mode.name), func(b *testing.B) {
				closed := mustCloseB(b, src)
				var states int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep := exploreB(b, closed, mode.opt)
					states = rep.States
				}
				b.ReportMetric(float64(states), "states")
			})
		}
	}
}

// --- E8: temporal-independence redundancy -----------------------------------

// BenchmarkTossRedundancy reports the closed Figure 2 path count against
// the two genuine behaviors of the open program.
func BenchmarkTossRedundancy(b *testing.B) {
	closed := mustCloseB(b, progs.FigureP)
	var redundancy float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := exploreB(b, closed, explore.Options{})
		redundancy = float64(rep.Paths) / 2 // two real behaviors: all-even, all-odd
	}
	b.ReportMetric(redundancy, "x-redundancy")
}

// --- substrate micro-benchmarks ---------------------------------------------

// BenchmarkParse measures front-end throughput on the large switch app.
func BenchmarkParse(b *testing.B) {
	src := []byte(fiveess.Source(fiveess.Scale("large")))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures raw interpretation speed on a
// deterministic recursive workload. The bytecode row drives the
// compiled machine directly (variables pre-resolved to dense frame
// indices, flat bytecode); the stringmap row drives the reference
// interpreter, which walks the AST and looks every variable up in a
// per-frame map. The explore row keeps the historical measurement
// through the full exploration engine.
func BenchmarkInterpreter(b *testing.B) {
	src := `
chan out[2];
proc fib(n, r) {
    if (n < 2) {
        *r = n;
        return;
    }
    var a;
    var b;
    fib(n - 1, &a);
    fib(n - 2, &b);
    *r = a + b;
}
proc main() {
    var r;
    fib(15, &r);
    send(out, r);
}
process main;
`
	unit, err := core.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	ch := interp.ChooserFunc(func(bound int) (int, bool) { return 0, true })

	b.Run("bytecode", func(b *testing.B) {
		sys, err := interp.NewSystem(unit)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Reset()
			if out := sys.Init(ch); out != nil {
				b.Fatal(out.Msg)
			}
			for !sys.AllTerminated() {
				if _, out := sys.Step(0, ch); out != nil {
					b.Fatal(out.Msg)
				}
			}
		}
	})
	b.Run("stringmap", func(b *testing.B) {
		sys, err := interp.NewRefSystem(unit)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Reset()
			if out := sys.Init(ch); out != nil {
				b.Fatal(out.Msg)
			}
			for !sys.AllTerminated() {
				if _, out := sys.Step(0, ch); out != nil {
					b.Fatal(out.Msg)
				}
			}
		}
	})
	b.Run("explore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep := exploreB(b, unit, explore.Options{})
			if rep.Traps != 0 {
				b.Fatal("trap")
			}
		}
	})
}

// BenchmarkForkVsReplay compares the two ways a parallel worker reaches
// a claimed subtree on a deep 5ESS workload: re-executing the unit's
// decision prefix from the initial state (replay) versus forking the
// snapshot the spiller attached (snapshot, Options.SnapshotSpill). The
// replaysteps metric is the per-run total of re-executed prefix
// transitions — the work the optimization removes; the explored tree
// (transitions) is identical in both rows.
func BenchmarkForkVsReplay(b *testing.B) {
	closed := mustCloseB(b, fiveess.Source(fiveess.Scale("medium")))
	opt := explore.Options{MaxDepth: 2000, MaxStates: 20000, Workers: 2, SpillDepth: 64}
	for _, mode := range []struct {
		name string
		snap bool
	}{
		{"replay", false},
		{"snapshot", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			o := opt
			o.SnapshotSpill = mode.snap
			var replayed, trans int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := exploreB(b, closed, o)
				replayed = rep.ReplaySteps
				trans = rep.Transitions
			}
			b.ReportMetric(float64(replayed), "replaysteps")
			b.ReportMetric(float64(trans), "transitions")
		})
	}
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

// BenchmarkStateKey measures what the stateful search does between two
// states of a backtrack — undo to a mark, step one process, take the
// state's key — on the lock server's 13-component state. "full" is a
// machine with hashing off, which renders every component of
// every key; "assembled" is the hashing machine's fingerprint, whose
// undo puts back the key segments and which re-renders the stepped
// process only; "ids" is the key a search stores, one segment-table id
// per component, which looks up what "assembled" renders.
func BenchmarkStateKey(b *testing.B) {
	closed := mustCloseB(b, lockserver.Source(lockserver.Config{Clients: 4, Rounds: 2}))
	res, err := interp.Resolve(closed)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		hashing bool
		tab     interp.SegmentTable
	}{{"full", false, nil}, {"assembled", true, nil}, {"ids", true, new(statecache.Segments)}} {
		b.Run("lock-c4-r2/"+c.name, func(b *testing.B) {
			m := res.NewSystem()
			m.SetStateHashing(c.hashing)
			ch := interp.FixedChooser(0)
			if out := m.Init(ch); out != nil {
				b.Fatal(out)
			}
			for i := 0; i < 6; i++ { // a few transitions in: queues and frames populated
				if _, out := m.Step(m.EnabledProcs()[0], ch); out != nil {
					b.Fatal(out)
				}
			}
			m.AppendKey(nil, c.tab)
			en := m.EnabledProcs()
			mk := m.Mark()
			var key []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := m.Undo(mk); !ok {
					b.Fatal("mark dead")
				}
				if _, out := m.Step(en[i%len(en)], ch); out != nil {
					b.Fatal(out)
				}
				key, _ = m.AppendKey(key[:0], c.tab)
			}
			b.ReportMetric(float64(len(key)), "keybytes")
		})
	}
}

// BenchmarkCheckpointCadence measures a complete search that checkpoints
// every 64 paths (verisoftd's default cadence; 1 897 checkpoints on this
// lock server), with the snapshots dropped. A checkpoint is a read of
// the paused workers, so replaysteps/op is that of the same search
// without checkpoints (121 413 inline, 166 788 with one worker) and
// ns/op carries only the cost of building the snapshots.
func BenchmarkCheckpointCadence(b *testing.B) {
	closed := mustCloseB(b, lockserver.Source(lockserver.Config{Clients: 3, Rounds: 2}))
	for _, workers := range []int{0, 1} {
		b.Run(fmt.Sprintf("lock-c3-r2-d30/workers=%d", workers), func(b *testing.B) {
			opt := explore.Options{
				MaxDepth: 30, Workers: workers,
				CheckpointEveryPaths: 64, Checkpoint: func(*explore.Snapshot) {},
			}
			var replayed int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replayed += exploreB(b, closed, opt).ReplaySteps
			}
			b.ReportMetric(float64(replayed)/float64(b.N), "replaysteps/op")
		})
	}
}

// BenchmarkAnalyze measures the dataflow analysis alone (Step 2: facts,
// taint passes, interprocedural fixpoint), per shape. The ns/node metric
// staying flat from N=5000 to N=20000 is the linearity claim for the
// analysis; BenchmarkClosingScaling has the same for Steps 2–5 together.
func BenchmarkAnalyze(b *testing.B) {
	for _, shape := range []synth.Shape{synth.StraightLine, synth.Branchy, synth.Loopy, synth.ManyProcs} {
		for _, n := range []int{5000, 20000} {
			b.Run(fmt.Sprintf("%s/N=%d", shape, n), func(b *testing.B) {
				unit, err := core.CompileSource(synth.Program(shape, n))
				if err != nil {
					b.Fatal(err)
				}
				nodes, _ := unit.Size()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := dataflow.Analyze(unit).Err(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
			})
		}
	}
}

// BenchmarkStateCacheAblation compares the default stateless search with
// the state-hashing ablation on a system with many converging paths.
func BenchmarkStateCacheAblation(b *testing.B) {
	src := progs.Pipeline(3, 2)
	for _, mode := range []struct {
		name  string
		cache bool
	}{
		{"stateless", false},
		{"hashed", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			closed := mustCloseB(b, src)
			var states int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := exploreB(b, closed, explore.Options{StateCache: mode.cache})
				states = rep.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkShardedCache measures the sharded concurrent cache across
// worker and shard counts on a convergence-heavy model: shards=1
// serializes every Visit on one mutex, shards=8 spreads the contention.
// The states metric shows the pruning is unchanged by either knob.
func BenchmarkShardedCache(b *testing.B) {
	closed := mustCloseB(b, progs.Pipeline(3, 2))
	for _, shards := range []int{1, 8} {
		for _, workers := range []int{0, 2, 4} {
			b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(b *testing.B) {
				var states, prunes int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep := exploreB(b, closed, explore.Options{
						StateCache:  true,
						CacheShards: shards,
						Workers:     workers,
						POR:         explore.POROff,
						NoSleep:     true,
					})
					states = rep.States
					prunes = rep.CachePrunes
				}
				b.ReportMetric(float64(states), "states")
				b.ReportMetric(float64(prunes), "prunes")
			})
		}
	}
}

// --- extension and post-pass benchmarks -------------------------------------

// BenchmarkPartitionedClose measures the §7 partitioning extension
// against plain closing on the resource-manager shape, reporting the
// behavior counts (partitioned closing is exact).
func BenchmarkPartitionedClose(b *testing.B) {
	src := `
chan a[1];
chan c[1];
env chan a;
env chan c;
env p.t;
proc p(t) {
    if (t < 10) {
        send(a, 1);
    }
    if (t < 10) {
        send(c, 1);
    }
}
process p;
`
	b.Run("plain", func(b *testing.B) {
		var behaviors int
		for i := 0; i < b.N; i++ {
			closed := mustCloseB(b, src)
			set, _, err := explore.TraceSet(closed, explore.Options{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			behaviors = len(set)
		}
		b.ReportMetric(float64(behaviors), "behaviors")
	})
	b.Run("partitioned", func(b *testing.B) {
		var behaviors int
		for i := 0; i < b.N; i++ {
			unit, err := core.CompileSource(src)
			if err != nil {
				b.Fatal(err)
			}
			closed, _, _, err := core.ClosePartitioned(unit)
			if err != nil {
				b.Fatal(err)
			}
			set, _, err := explore.TraceSet(closed, explore.Options{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			behaviors = len(set)
		}
		b.ReportMetric(float64(behaviors), "behaviors")
	})
}

// BenchmarkCodegenRoundTrip measures emitting + re-compiling the closed
// 5ESS application.
func BenchmarkCodegenRoundTrip(b *testing.B) {
	closed := mustCloseB(b, fiveess.Source(fiveess.Scale("medium")))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := codegen.Emit(closed)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.CloseSource(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEliminateDead measures the liveness-driven cleanup pass on
// the closed large application.
func BenchmarkEliminateDead(b *testing.B) {
	src := fiveess.Source(fiveess.Scale("large"))
	var removed int
	for i := 0; i < b.N; i++ {
		closed := mustCloseB(b, src)
		removed = core.EliminateDead(closed)
	}
	b.ReportMetric(float64(removed), "nodes-removed")
}

// BenchmarkShortestWitness measures iterative-deepening witness search
// against plain DFS witness depth on the philosophers deadlock.
func BenchmarkShortestWitness(b *testing.B) {
	unit := mustCloseB(b, progs.Philosophers(4))
	b.Run("dfs-first", func(b *testing.B) {
		var depth int
		for i := 0; i < b.N; i++ {
			rep := exploreB(b, unit, explore.Options{StopOnIncident: true})
			depth = rep.Samples[0].Depth
		}
		b.ReportMetric(float64(depth), "witness-depth")
	})
	b.Run("iddfs", func(b *testing.B) {
		var depth int
		for i := 0; i < b.N; i++ {
			in, _, err := explore.ShortestWitness(unit, explore.Options{})
			if err != nil || in == nil {
				b.Fatal(err)
			}
			depth = in.Depth
		}
		b.ReportMetric(float64(depth), "witness-depth")
	})
}

// BenchmarkLiveness measures the non-progress cycle search: the clean
// election ring with liveness off vs. on (the cost of the blue stack
// and progress bookkeeping on an incident-free workload) and the
// seeded deferral variant (the cost of actually finding livelocks,
// with the red-search counters carried as metrics).
func BenchmarkLiveness(b *testing.B) {
	clean := mustCloseB(b, leaderelect.Source(leaderelect.Config{Nodes: 3}))
	seeded := mustCloseB(b, leaderelect.Source(leaderelect.Config{Nodes: 3, SeedLivelock: true}))
	for _, c := range []struct {
		name string
		unit *cfg.Unit
		opt  explore.Options
	}{
		{"clean/off", clean, explore.Options{MaxDepth: 200}},
		{"clean/on", clean, explore.Options{MaxDepth: 200, Liveness: true}},
		{"seeded/on", seeded, explore.Options{MaxDepth: 120, Liveness: true}},
		{"seeded/on+cache", seeded, explore.Options{MaxDepth: 120, Liveness: true, StateCache: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var livelocks, red int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := exploreB(b, c.unit, c.opt)
				livelocks = rep.Livelocks
				red = rep.RedSearches
			}
			b.ReportMetric(float64(livelocks), "livelocks")
			b.ReportMetric(float64(red), "red-searches")
		})
	}
}
