// Command experiments regenerates the tables of EXPERIMENTS.md (E1–E11
// and E15): the worked figures of the paper, the complexity and
// state-space claims, the Theorem 7 preservation checks, the 5ESS case
// study, the partial-order-reduction ablation, the extensions and
// post-passes, interrupt/resume equivalence and the liveness search.
//
// Usage:
//
//	experiments [-quick] [-only E4]
//
// With -only the closing total: line goes to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"reclose/internal/experiments"
)

var (
	quick = flag.Bool("quick", false, "reduced scales for a fast run")
	only  = flag.String("only", "", "run a single experiment (E1..E11, E15)")
)

func main() {
	flag.Parse()
	cfg := experiments.Config{Quick: *quick}
	start := time.Now()
	w := os.Stdout

	fmt.Fprintf(w, "Reproduction harness: Colby, Godefroid, Jagadeesan,\n")
	fmt.Fprintf(w, "\"Automatically Closing Open Reactive Programs\" (PLDI 1998)\n")

	runners := map[string]func(){
		"E1":  func() { experiments.E1Fig2(w, cfg) },
		"E2":  func() { experiments.E2Fig3(w, cfg) },
		"E3":  func() { experiments.E3Linear(w, cfg) },
		"E4":  func() { experiments.E4Domain(w, cfg) },
		"E5":  func() { experiments.E5Preservation(w, cfg) },
		"E6":  func() { experiments.E6CaseStudy(w, cfg) },
		"E7":  func() { experiments.E7POR(w, cfg) },
		"E8":  func() { experiments.E8Redundancy(w, cfg) },
		"E9":  func() { experiments.E9Partitioning(w, cfg) },
		"E10": func() { experiments.E10Optimizations(w, cfg) },
		"E11": func() { experiments.E11Resilience(w, cfg) },
		"E15": func() { experiments.E15Liveness(w, cfg) },
	}
	if *only != "" {
		run, ok := runners[*only]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want E1..E11, E15)\n", *only)
			os.Exit(2)
		}
		run()
		// The wall time goes to stderr, so one deterministic table's
		// stdout is the same from run to run.
		fmt.Fprintf(os.Stderr, "total: %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	experiments.RunAll(w, cfg)
	fmt.Fprintf(w, "\ntotal: %v\n", time.Since(start).Round(time.Millisecond))
}
