package main

import "sort"

// sample is a set of measurements of one quantity within a run. The
// reported value is the median; the quartiles and the count are printed
// beside it so a reader (and -compare) can see the run's own spread.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s sample) median() float64 {
	v := s.sorted()
	n := len(v)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method): the
// acceptance rule for this benchmark is stated in those terms, so
// -compare and the README's spread figures use the same arithmetic.
// Fewer than two values have no spread; both quartiles are the value.
func (s sample) quartiles() (q1, q3 float64) {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return v[0], v[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailBeyond is how many samples must lie strictly beyond a reported
// tail percentile for it to be an estimate and not an anecdote.
const tailBeyond = 10

// tail returns the highest percentile of s, up to the 99th, that still
// has tailBeyond samples beyond it, and which percentile that is. With
// too few samples for any percentile above the median to qualify it
// returns the median as the 50th.
func (s sample) tail() (value, percentile float64) {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	k := (99*n+99)/100 - 1 // index of the 99th percentile: ceil(0.99 n) - 1
	if lim := n - 1 - tailBeyond; k > lim {
		k = lim
	}
	if k <= (n-1)/2 {
		return s.median(), 50
	}
	return v[k], 100 * float64(k+1) / float64(n)
}
