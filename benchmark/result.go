package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef is one metric of BENCHMARK.json. That file is the single
// list of metric names, units, directions and regression bounds: the
// run prints exactly the metrics it names and -compare applies exactly
// its bounds.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// metricValue is a reported metric: the value (a median unless the
// metric's definition says otherwise), the quartiles of the samples it
// was taken from, and how many there were.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// itemRow is one item's share of an untraced run.
type itemRow struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	MedianMS    float64 `json:"median_ms"`
	PeakRSSMiB  float64 `json:"peak_rss_mb,omitempty"`
	Exit        int     `json:"exit"`
	Transitions int64   `json:"transitions,omitempty"`
	// WallMS is every cold-process run of the item, in pass order (CLI
	// workloads only; a daemon item has hundreds).
	WallMS []float64 `json:"wall_ms,omitempty"`
}

// runDoc is one run of one workload.
type runDoc struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"`
	Passes   int     `json:"passes"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Mistaken  int      `json:"mistaken"` // completed, but not with the known answer
	Problems  []string `json:"problems,omitempty"`

	// The three exact rows: verdict_ok_share and failed_share restate
	// the counts above; transitions_total is the forward transitions of
	// one pass, which must repeat exactly from pass to pass.
	VerdictOKShare   float64 `json:"verdict_ok_share"`
	FailedShare      float64 `json:"failed_share"`
	TransitionsTotal int64   `json:"transitions_total"`
	// TailPercentile is which percentile verdict_tail_ms reports on a
	// daemon workload (99 given enough jobs).
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	// HostSlowness is what every timing of an untraced run was divided
	// by (and every rate multiplied by): the median of HostSamples
	// timings of the kernel in calibrate.go, taken between the children,
	// over its nominal time. A raw timing is the reported one times this.
	HostSlowness float64 `json:"host_slowness,omitempty"`
	HostSamples  int     `json:"host_samples,omitempty"`

	Metrics map[string]metricValue `json:"metrics"`
	Items   []itemRow              `json:"items,omitempty"`
	Trace   string                 `json:"trace,omitempty"` // path of trace.jsonl
}

func (r *runDoc) problem(format string, args ...any) {
	const keep = 20
	if len(r.Problems) < keep {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// settle derives the verdict of the run from its counts.
func (r *runDoc) settle() {
	if r.Attempted > 0 {
		r.VerdictOKShare = float64(r.Attempted-r.Failed-r.Mistaken) / float64(r.Attempted)
		r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	}
	r.Correct = r.Attempted > 0 && r.Failed == 0 && r.Mistaken == 0 && len(r.Problems) == 0
}

// hostExponent says how an end-to-end metric moves with the host's
// slowness: a time is divided by it, a rate multiplied. peak_rss_mb is
// neither. A metric added to BENCHMARK.json is added here or stays raw.
var hostExponent = map[string]float64{
	"setup_s":         -1,
	"verdict_wall_s":  -1,
	"verdict_p50_ms":  -1,
	"verdict_tail_ms": -1,
	"work_per_s":      1,
}

// correctForHost rescales the run's timings and rates, quartiles
// included, to what a host of nominal speed would have read.
func (r *runDoc) correctForHost(h *hostClock) {
	r.HostSlowness, r.HostSamples = h.slowness(), len(h.samples)
	for name, exp := range hostExponent {
		if m, ok := r.Metrics[name]; ok {
			f := math.Pow(r.HostSlowness, exp)
			m.Value, m.Q1, m.Q3 = m.Value*f, m.Q1*f, m.Q3*f
			r.Metrics[name] = m
		}
	}
}

func (r *runDoc) set(name string, s sample) {
	q1, q3 := s.quartiles()
	r.Metrics[name] = metricValue{Value: s.median(), Q1: q1, Q3: q3, N: len(s)}
}

// setValue records a metric whose value is not the median of s (a
// maximum, a pooled percentile); s still supplies the spread.
func (r *runDoc) setValue(name string, value float64, s sample) {
	q1, q3 := s.quartiles()
	r.Metrics[name] = metricValue{Value: value, Q1: q1, Q3: q3, N: len(s)}
}

// envInfo identifies where and on what a document was measured.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"` // inherited, never overridden
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func currentEnv(root string, seed int64) envInfo {
	commit := "unknown" // a driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
		Seed:       seed,
	}
}

// document is what -out writes and -compare reads.
type document struct {
	// Claim is always null here: the change that defines the benchmark
	// claims no gain.
	Claim *string  `json:"claim"`
	Env   envInfo  `json:"env"`
	Runs  []runDoc `json:"runs"`
}

// printRun prints every metric of the selected kind by name, with its
// unit, then the run's exact rows.
func printRun(w io.Writer, r *runDoc, defs []metricDef) {
	mode := "end to end, tracing off"
	if r.Traced {
		mode = "per layer, traced"
	}
	fmt.Fprintf(w, "\n== %s (seed %d, %s, %d passes) ==\n", r.Workload, r.Seed, mode, r.Passes)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		spread := ""
		if m.N > 1 {
			spread = fmt.Sprintf("  (q1 %.6g, q3 %.6g, n=%d)", m.Q1, m.Q3, m.N)
		}
		fmt.Fprintf(w, "%-36s %14.6g %-8s%s\n", d.Name, m.Value, d.Unit, spread)
	}
	if !r.Traced {
		fmt.Fprintf(w, "%-36s %14d %-8s\n", "transitions_total", r.TransitionsTotal, "count")
	}
	fmt.Fprintf(w, "%-36s %14.6g %-8s  (%d attempted)\n", "verdict_ok_share", r.VerdictOKShare, "ratio", r.Attempted)
	fmt.Fprintf(w, "%-36s %14.6g %-8s  (%d failed)\n", "failed_share", r.FailedShare, "ratio", r.Failed)
	if r.TailPercentile > 0 {
		fmt.Fprintf(w, "verdict_tail_ms is the %.4gth percentile\n", r.TailPercentile)
	}
	if r.HostSamples > 0 {
		fmt.Fprintf(w, "%-36s %14.6g %-8s  (%d kernel samples; timings above are raw ÷ this, work_per_s raw × this; raw verdict_wall_s %.6g s)\n",
			"host_slowness", r.HostSlowness, "ratio", r.HostSamples, r.Metrics["verdict_wall_s"].Value*r.HostSlowness)
	}
	for _, it := range r.Items {
		fmt.Fprintf(w, "  item %-44s %10.3f ms raw  exit %d  rss %6.1f MiB  x%d\n", it.Name, it.MedianMS, it.Exit, it.PeakRSSMiB, it.Runs)
	}
	if r.Trace != "" {
		fmt.Fprintf(w, "spans written to %s\n", r.Trace)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

// resultLine is the last line of standard output: the form the driver
// reads.
func resultLine(r *runDoc, defs []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed + r.Mistaken, make(map[string]mv, len(defs))}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("workload %s produced no metric %s, which BENCHMARK.json names", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = mv{m.Value, d.Unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}
