package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice,
// interpolating linearly between the two closest ranks. It returns NaN
// for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := float64(n-1) * p
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median returns the median of values without modifying them.
func median(values []float64) float64 {
	return percentile(sortedCopy(values), 0.5)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of
// values with the method of Python's statistics.quantiles(values, n=4)
// (the default "exclusive" method), which is how run-to-run spread is
// judged. A single value is its own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// relSpread is the distance between the quartiles as a share of the
// median: the run-to-run spread a metric's bound must exceed.
func relSpread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(q2)
}

// worseBy is the share of base by which v is worse than base in the
// metric's direction: positive when v is worse, negative when better.
func worseBy(base, v float64, better string) float64 {
	d := (v - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

// isBetter reports whether v strictly beats w in the metric's direction.
func isBetter(v, w float64, better string) bool {
	if better == "higher" {
		return v > w
	}
	return v < w
}

// latencySummary condenses one step's request latencies.
type latencySummary struct {
	n        int
	p50, p99 float64 // milliseconds
}

func summarize(durs []time.Duration) latencySummary {
	ms := make([]float64, len(durs))
	for i, d := range durs {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return latencySummary{n: len(ms), p50: percentile(ms, 0.5), p99: percentile(ms, 0.99)}
}
