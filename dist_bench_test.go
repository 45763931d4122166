package bench

import (
	"context"
	"fmt"
	"os"
	"testing"

	"reclose/internal/dist"
	"reclose/internal/explore"
	"reclose/internal/fiveess"
)

// TestMain re-execs the test binary as a distributed-exploration
// worker when the gate is set, so BenchmarkDistExplore measures real
// coordinator/worker subprocesses without shelling out to go build.
func TestMain(m *testing.M) {
	if os.Getenv("RECLOSE_DIST_WORKER") == "1" {
		if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// --- E14: multi-process distributed exploration ----------------------------

// BenchmarkDistExplore runs the same 5ESS medium search as
// BenchmarkParallelExplore but through the coordinator/worker protocol
// with real OS processes, so the rows quantify the serialization,
// spawn, and lease-bookkeeping overhead of distribution against the
// in-process engine's numbers. On the single-CPU bench host the
// workers time-slice one core, so the interesting comparison is
// overhead per transition, not wall-clock scaling.
func BenchmarkDistExplore(b *testing.B) {
	src := fiveess.Source(fiveess.Scale("medium"))
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var trans int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := dist.Run(context.Background(), dist.Program{Source: src},
					explore.Options{MaxDepth: 500, MaxStates: 20000},
					dist.Config{
						Workers: workers,
						Command: []string{os.Args[0]},
						Env:     []string{"RECLOSE_DIST_WORKER=1"},
					})
				if err != nil {
					b.Fatal(err)
				}
				trans = rep.Transitions
			}
			b.ReportMetric(float64(trans), "transitions")
		})
	}
}
