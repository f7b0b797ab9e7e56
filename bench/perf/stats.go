// Package perf is the flepperf benchmark harness: six workloads that
// drive the serving stack from outside (loopback HTTP, in-process
// handlers, the replayer and the paper suite), a span recorder for the
// traced pass, isolated probes of each layer's public API, and the
// bound comparison behind `flepperf -agree`. Nothing here is imported by
// the system under test.
package perf

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// Median returns the median of vs without modifying it.
func Median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return Quantile(s, 0.5)
}

// Quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so a
// spread computed here equals the one the driver computes. It needs at
// least two values.
func Quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th quartile cut, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(3)
}

// Spread is the interquartile distance as a share of the median: the
// run-to-run noise figure a bound is judged against. Fewer than two
// values, or a zero median, have no spread.
func Spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := Median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(vs)
	return math.Abs((q3 - q1) / m)
}

// durationsToMicros converts nanosecond samples to sorted microseconds.
func durationsToMicros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}
