// Command benchmark is the repo benchmark: five workloads, from reclose
// to verisoftd, each measured end to end through the shipped binaries
// with tracing off, and layer by layer in a separate traced run whose
// spans and counters are taken from outside, around the layers' public
// functions. BENCHMARK.json at the module root names the metrics, their
// regression bounds and the workloads; README.md says why.
//
// Usage:
//
//	go run ./benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out file.json]
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all five)")
		seed         = flag.Int64("seed", 1, "seed for the order of items, the job mix and the seeded tail")
		seconds      = flag.Float64("seconds", 0, "how long one run measures; the driver passes run_seconds of BENCHMARK.json, which is also the default")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics through the binaries, tracing off; 1: per-layer metrics from an in-process traced run")
		out          = flag.String("out", "", "also write the run document (metrics with quartiles, environment) to this file")
		compare      = flag.Bool("compare", false, "compare two run documents: -compare a.json b.json")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, traced bool, out string, compare bool, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	// The command is `go run ./benchmark` from the module root; started
	// anywhere else it would measure some other tree's binaries.
	if cwd, err := os.Getwd(); err != nil {
		return err
	} else if cwd != root {
		return fmt.Errorf("run it from the module root %s, not from %s", root, cwd)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two run documents")
		}
		return compareFiles(os.Stdout, spec, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	selected := workloads
	if workloadName != "" {
		wl, err := findWorkload(workloadName)
		if err != nil {
			return err
		}
		selected = []workload{*wl}
	}
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}

	// A signal cancels the run; every exit path below tears down what
	// it set up, so no child and no scratch directory outlives it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scratch := filepath.Join(root, buildDir)
	doc := document{Env: currentEnv(root, seed)}
	fmt.Printf("benchmark: go %s, %d CPUs, GOMAXPROCS %d, commit %s, seed %d\n",
		doc.Env.GoVersion, doc.Env.NumCPU, doc.Env.GOMAXPROCS, doc.Env.Commit, seed)
	incorrect := 0
	var lines []string
	for i := range selected {
		wl := &selected[i]
		var r *runDoc
		if traced {
			r, err = runTraced(ctx, root, scratch, wl, seed, seconds)
		} else {
			r, err = runEndToEnd(ctx, root, scratch, wl, seed, seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		for j := range defs {
			m := r.Metrics[defs[j].Name]
			m.Unit = defs[j].Unit
			r.Metrics[defs[j].Name] = m
		}
		printRun(os.Stdout, r, defs)
		line, err := resultLine(r, defs)
		if err != nil {
			return err
		}
		lines = append(lines, line)
		if !r.Correct {
			incorrect++
		}
		doc.Runs = append(doc.Runs, *r)
	}
	if out != "" {
		data, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The result lines come last: the driver reads the final line.
	fmt.Println()
	for _, line := range lines {
		fmt.Println(line)
	}
	if incorrect > 0 {
		return fmt.Errorf("%d of %d workloads ended with a wrong verdict or a failed operation", incorrect, len(selected))
	}
	return nil
}
