package main

import (
	"math"
	"strings"
	"testing"
)

func TestCompareMetric(t *testing.T) {
	tight := func(v float64) metricValue { return metricValue{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 5} }
	noisy := func(v float64) metricValue { return metricValue{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 5} }
	lower := metricDef{Name: "verdict_wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name    string
		a, b    metricValue
		def     metricDef
		verdict string
		change  float64
	}{
		{"same", tight(4), tight(4), lower, cmpUnchanged, 0},
		{"inside the bound", tight(4), tight(4.3), lower, cmpUnchanged, 0.075},
		{"slower by more than the bound", tight(4), tight(4.6), lower, cmpWorse, 0.15},
		{"faster by more than the bound", tight(4), tight(3.4), lower, cmpBetter, -0.15},
		{"higher is better: a drop is worse", tight(100), tight(80), higher, cmpWorse, 0.20},
		{"higher is better: a rise is better", tight(100), tight(120), higher, cmpBetter, -0.20},
		{"a's own spread exceeds the bound", noisy(4), tight(4.6), lower, cmpUnresolved, 0.15},
		{"b's own spread exceeds the bound", tight(4), noisy(4), lower, cmpUnresolved, 0},
		{"setup_s is judged on its medians alone", noisy(0.7), tight(0.72), metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}, cmpUnchanged, 0.02 / 0.7},
		{"a single sample has no spread", metricValue{Value: 70, Q1: 70, Q3: 70, N: 1}, metricValue{Value: 71, Q1: 71, Q3: 71, N: 1}, lower, cmpUnchanged, 1.0 / 70},
	} {
		verdict, change := compareMetric(tc.a, tc.b, tc.def)
		if verdict != tc.verdict || math.Abs(change-tc.change) > 1e-9 {
			t.Errorf("%s: %s %+.4f, want %s %+.4f", tc.name, verdict, change, tc.verdict, tc.change)
		}
	}
}

// TestCompareDocuments checks that a comparison cannot come back clean
// on documents that are partial, mismatched or share nothing.
func TestCompareDocuments(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []metricDef{
		{Name: "verdict_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	}}
	one := func(workload string, seed int64, seconds float64, metrics ...string) runDoc {
		r := runDoc{Workload: workload, Seed: seed, Seconds: seconds, VerdictOKShare: 1, TransitionsTotal: 100, Metrics: make(map[string]metricValue)}
		for _, name := range metrics {
			r.Metrics[name] = metricValue{Value: 4, Q1: 3.9, Q3: 4.1, N: 5}
		}
		return r
	}
	full := func(workload string) runDoc { return one(workload, 1, 15, "verdict_wall_s", "work_per_s") }
	traced := full("close_scale")
	traced.Traced = true
	fewer := full("close_scale")
	fewer.TransitionsTotal = 99
	for _, tc := range []struct {
		name string
		a, b []runDoc
		want string // part of the error; "" for a clean comparison
	}{
		{"same runs", []runDoc{full("close_scale"), full("daemon_jobs")}, []runDoc{full("close_scale"), full("daemon_jobs")}, ""},
		{"traced runs are left out", []runDoc{full("close_scale"), traced}, []runDoc{full("close_scale")}, ""},
		{"no workload in common", []runDoc{full("close_scale")}, []runDoc{full("daemon_jobs")}, "2 rows"},
		{"a workload only in a", []runDoc{full("close_scale"), full("daemon_jobs")}, []runDoc{full("close_scale")}, "1 rows"},
		{"a workload only in b", []runDoc{full("close_scale")}, []runDoc{full("close_scale"), full("daemon_jobs")}, "1 rows"},
		{"a metric only in a", []runDoc{full("close_scale")}, []runDoc{one("close_scale", 1, 15, "verdict_wall_s")}, "1 rows"},
		{"a metric only in b", []runDoc{one("close_scale", 1, 15, "work_per_s")}, []runDoc{full("close_scale")}, "1 rows"},
		{"only traced runs", []runDoc{traced}, []runDoc{traced}, "no end-to-end run"},
		{"another seed", []runDoc{full("close_scale")}, []runDoc{one("close_scale", 2, 15, "verdict_wall_s", "work_per_s")}, "not the same inputs and length"},
		{"another length", []runDoc{full("close_scale")}, []runDoc{one("close_scale", 1, 5, "verdict_wall_s", "work_per_s")}, "not the same inputs and length"},
		{"an exact row differs", []runDoc{full("close_scale")}, []runDoc{fewer}, "1 rows"},
	} {
		var out strings.Builder
		err := compareDocuments(&out, spec, &document{Runs: tc.a}, &document{Runs: tc.b})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v\n%s", tc.name, err, out.String())
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one with %q\n%s", tc.name, err, tc.want, out.String())
		}
	}
}
