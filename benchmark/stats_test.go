package main

import (
	"math"
	"testing"
)

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// The tail rule: the highest percentile, capped at the 99th, with at
// least ten samples beyond it; the median when no higher one qualifies.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{0, 0, 0},
		{1, 1, 50},
		{10, 5.5, 50},
		{21, 11, 50},              // the median itself has exactly ten beyond
		{22, 12, 100 * 12.0 / 22}, // the first percentile above the median to qualify
		{25, 15, 60},              // 16..25 lie beyond
		{100, 90, 90},             // 91..100 lie beyond
		{500, 490, 98},            // p99 would leave only five beyond
		{1000, 990, 99},           // p99 has exactly ten beyond
		{1100, 1089, 99},          // p99 with room to spare
		{1800, 1782, 99},          // the 1 800 timed jobs the workload aims for
		{10000, 9900, 99},         // capped at the 99th
	} {
		v, pct := seq(tc.n).tail()
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %g at p%g, want %g at p%g", tc.n, v, pct, tc.value, tc.pct)
		}
		if tc.n > 0 && pct > 50 {
			if beyond := tc.n - int(v); beyond < tailBeyond {
				t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
			}
		}
	}
}

// Quartiles follow Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     sample
		q1, q3 float64
	}{
		{sample{7}, 7, 7},
		{sample{1, 2}, 0.75, 2.25},
		{sample{3, 1, 2}, 1, 3},
		{sample{1, 2, 3, 4}, 1.25, 3.75},
		{seq(10), 2.75, 8.25},
		{sample{4.1, 4.6, 5.1, 4.4, 4.2}, 4.15, 4.85},
	} {
		q1, q3 := tc.in.quartiles()
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   sample
		want float64
	}{
		{nil, 0}, {sample{3}, 3}, {sample{4, 1}, 2.5}, {sample{9, 1, 5}, 5}, {sample{4, 3, 2, 1}, 2.5},
	} {
		if got := tc.in.median(); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
}
