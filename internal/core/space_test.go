package core_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/dataflow"
	"reclose/internal/normalize"
	"reclose/internal/parser"
	"reclose/internal/sem"
	"reclose/internal/synth"
)

// passNames are the passes of CompileSource and Close, in that order.
var passNames = [...]string{"parse", "sem", "normalize", "cfg", "dataflow", "close"}

// alloc is what a pass allocated: bytes and objects.
type alloc struct{ bytes, objs uint64 }

// passAllocs runs the closing pipeline on src once and returns what each
// pass allocated and the open unit's node count.
func passAllocs(t *testing.T, src string) (per [len(passNames)]alloc, nodes int) {
	t.Helper()
	var ms runtime.MemStats
	prev := alloc{}
	i := 0
	mark := func() {
		runtime.ReadMemStats(&ms)
		if i > 0 {
			per[i-1] = alloc{ms.TotalAlloc - prev.bytes, ms.Mallocs - prev.objs}
		}
		prev, i = alloc{ms.TotalAlloc, ms.Mallocs}, i+1
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	mark()
	prog, err := parser.Parse([]byte(src))
	must(err)
	mark()
	info, err := sem.Check(prog)
	must(err)
	mark()
	normalize.Checked(prog, info)
	mark()
	u := cfg.CompileUnit(prog, info)
	must(u.Validate())
	mark()
	res := dataflow.Analyze(u)
	mark()
	_, _, err = core.CloseAnalyzed(u, res)
	must(err)
	mark()
	nodes, _ = u.Size()
	return per, nodes
}

// retainedByAnalysis is HeapAlloc after a collection with the dataflow
// result of u alive, less HeapAlloc after one without it.
func retainedByAnalysis(u *cfg.Unit) int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	res := dataflow.Analyze(u)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(res)
	return int64(ms.HeapAlloc) - int64(before)
}

// graphObjs is, per shape, the most objects per node cfg and close
// allocated over the three sizes once arcs were stored inline and nodes
// lost their predecessor lists, and on ManyProcs once units shared
// sem.Info's Arrays. TestSpacePerPass allows 5 % over it.
var graphObjs = map[synth.Shape]struct{ cfg, close float64 }{
	synth.StraightLine: {3.01, 1.51},
	synth.Branchy:      {4.01, 3.01},
	synth.Loopy:        {4.01, 2.41},
	synth.ManyProcs:    {3.64, 1.51},
}

// TestSpacePerPass is the closer's linearity claim for space: over the
// four synth shapes at three doubling sizes it records the bytes and
// objects each pass allocates per CFG node, and the bytes per node the
// dataflow result keeps alive. No pass's bytes per node may grow by more
// than a tenth per doubling, dataflow's objects per node may not grow,
// and neither may the bytes the result retains per node. cfg and close
// may not allocate more than 5 % over graphObjs per node.
func TestSpacePerPass(t *testing.T) {
	const reps = 3 // the minimum of three runs damps map-growth luck
	var table strings.Builder
	fmt.Fprintf(&table, "%-13s %6s", "shape n", "nodes")
	for _, p := range passNames {
		fmt.Fprintf(&table, " %14s", p)
	}
	fmt.Fprintf(&table, " %9s\n", "retained")
	for _, shape := range []synth.Shape{synth.StraightLine, synth.Branchy, synth.Loopy, synth.ManyProcs} {
		var prev [len(passNames)]float64
		var prevObjs, prevKept float64
		for _, n := range []int{5000, 10000, 20000} {
			src := synth.Program(shape, n)
			var best [len(passNames)]alloc
			var nodes int
			for r := 0; r < reps; r++ {
				per, nn := passAllocs(t, src)
				nodes = nn
				for i, a := range per {
					if r == 0 || a.bytes < best[i].bytes {
						best[i].bytes = a.bytes
					}
					if r == 0 || a.objs < best[i].objs {
						best[i].objs = a.objs
					}
				}
			}
			u := core.MustCompileSource(src)
			kept := retainedByAnalysis(u)
			for r := 1; r < reps; r++ {
				kept = min(kept, retainedByAnalysis(u))
			}
			keptPer := float64(kept) / float64(nodes)

			fmt.Fprintf(&table, "%-13s %6d", fmt.Sprintf("%s %d", shape, n), nodes)
			for i, a := range best {
				bpn := float64(a.bytes) / float64(nodes)
				fmt.Fprintf(&table, " %7.1fB %5.2fo", bpn, float64(a.objs)/float64(nodes))
				if prev[i] != 0 && bpn > 1.10*prev[i] {
					t.Errorf("%s n=%d: %s allocates %.1f B per node, up from %.1f at half the size", shape, n, passNames[i], bpn, prev[i])
				}
				prev[i] = bpn
			}
			fmt.Fprintf(&table, " %8.1fB\n", keptPer)
			for _, p := range []struct {
				i     int
				bound float64
			}{{3, graphObjs[shape].cfg}, {5, graphObjs[shape].close}} {
				if objs := float64(best[p.i].objs) / float64(nodes); objs > 1.05*p.bound {
					t.Errorf("%s n=%d: %s allocates %.2f objects per node, more than 5 %% over %.2f", shape, n, passNames[p.i], objs, p.bound)
				}
			}
			objs := float64(best[4].objs) / float64(nodes) // dataflow
			if prevObjs != 0 && objs > 1.02*prevObjs {
				t.Errorf("%s n=%d: dataflow allocates %.3f objects per node, up from %.3f at half the size", shape, n, objs, prevObjs)
			}
			if prevKept != 0 && keptPer > 1.10*prevKept {
				t.Errorf("%s n=%d: the dataflow result keeps %.1f B per node alive, up from %.1f at half the size", shape, n, keptPer, prevKept)
			}
			prevObjs, prevKept = objs, keptPer
		}
	}
	t.Logf("bytes (B) and objects (o) allocated per CFG node by each pass; bytes per node the dataflow result retains\n%s", table.String())
}
