// Command reclose closes an open MiniC program with its most general
// environment, implementing the transformation of "Automatically Closing
// Open Reactive Programs" (PLDI 1998).
//
// Usage:
//
//	reclose [flags] file.mc
//
// With no flags it prints the closed program as a control-flow-graph
// listing (the transformation can produce irreducible control flow, so
// the output is a goto-style listing rather than structured source)
// followed by the transformation statistics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"

	"reclose/internal/cfg"
	"reclose/internal/codegen"
	"reclose/internal/core"
	"reclose/internal/dataflow"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the whole command with its streams as parameters, so tests
// drive it in-process. It returns the exit code: 0 success, 1 error, 2
// usage.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reclose", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dumpCFG      = fs.Bool("dump-cfg", false, "print the control-flow graphs of the open program and exit")
		dumpAnalysis = fs.Bool("dump-analysis", false, "print the per-node V_I analysis and exit")
		statsOnly    = fs.Bool("stats", false, "print only the transformation statistics")
		quiet        = fs.Bool("q", false, "suppress the closed-program listing")
		dot          = fs.Bool("dot", false, "emit Graphviz DOT instead of the plain listing")
		emit         = fs.Bool("emit", false, "emit the closed program as re-parseable MiniC source (trampoline encoding)")
		partition    = fs.Bool("partition", false, "partition comparison-only env inputs (S7 extension) before closing")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: reclose [flags] file.mc (use - for stdin)\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	run := func() error {
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("cpuprofile: %w", err)
			}
			// Every way out of run stops the profile: reclose has no
			// forced exit.
			defer func() {
				pprof.StopCPUProfile()
				if err := f.Close(); err != nil {
					fmt.Fprintf(stderr, "reclose: cpuprofile: %v\n", err)
				}
			}()
		}
		src, err := readSource(fs.Arg(0))
		if err != nil {
			return err
		}
		unit, err := core.CompileSource(string(src))
		if err != nil {
			return err
		}

		if *dumpCFG {
			if *dot {
				fmt.Fprint(stdout, unit.Dot())
			} else {
				fmt.Fprint(stdout, unit.String())
			}
			return nil
		}
		if *dumpAnalysis {
			res := dataflow.Analyze(unit)
			for _, name := range unit.Order {
				fmt.Fprint(stdout, res.Proc(name).String())
			}
			printInterface(stdout, res)
			return nil
		}

		// Under -emit and -dot the statistics lines are comments, so the
		// output re-parses as MiniC or DOT.
		listing := !*statsOnly && !*quiet
		note := ""
		if listing && (*emit || *dot) {
			note = "// "
		}
		var closed *cfg.Unit
		var st *core.Stats
		if *partition {
			var pst *core.PartitionStats
			closed, st, pst, err = core.ClosePartitioned(unit)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%spartitioning: %s\n", note, pst)
		} else {
			closed, st, err = core.Close(unit)
			if err != nil {
				return err
			}
		}
		if listing {
			switch {
			case *emit:
				src, err := codegen.Emit(closed)
				if err != nil {
					return err
				}
				fmt.Fprint(stdout, src)
			case *dot:
				fmt.Fprint(stdout, closed.Dot())
			default:
				fmt.Fprint(stdout, closedHeader(closed))
				fmt.Fprint(stdout, closed.String())
			}
		}
		fmt.Fprintf(stdout, "%sclosing: %s\n", note, st)
		return nil
	}
	if err := run(); err != nil {
		fmt.Fprintf(stderr, "reclose: %v\n", err)
		return 1
	}
	return 0
}

func readSource(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func closedHeader(u *cfg.Unit) string {
	out := "// closed program (CFG listing)\n// objects:\n"
	for _, o := range u.Objects {
		suffix := ""
		if o.EnvFacing {
			suffix = " (env-facing stub)"
		}
		out += fmt.Sprintf("//   %s %s = %d%s\n", o.Kind, o.Name, o.Arg, suffix)
	}
	out += "// processes:\n"
	for i, p := range u.Processes {
		out += fmt.Sprintf("//   P%d: %s\n", i, p)
	}
	return out
}

// printInterface prints the effective environment interface: parameters
// in declaration order, objects by name.
func printInterface(w io.Writer, res *dataflow.Result) {
	fmt.Fprintln(w, "effective environment interface:")
	for _, name := range res.Unit.Order {
		var params []string
		for i, p := range res.Unit.Procs[name].Params {
			if res.EnvParams[name][i] {
				params = append(params, p)
			}
		}
		if len(params) > 0 {
			fmt.Fprintf(w, "  %s: env params %v\n", name, params)
		}
	}
	var tainted []string
	for o := range res.TaintedObjs {
		tainted = append(tainted, o)
	}
	sort.Strings(tainted)
	if len(tainted) > 0 {
		fmt.Fprintf(w, "  objects carrying env data: %v\n", tainted)
	}
}
