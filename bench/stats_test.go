package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.99, 9.91}, {1, 10}, {0.25, 3.25},
	} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single value: %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty slice should give NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9, 2, 7, 4.5, 8}, [3]float64{2, 4.5, 8}},
	} {
		q1, q2, q3 := quartiles(c.data)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.data, q1, q2, q3, c.want)
		}
	}
	// The spread of 1..10 is (8.25-2.75)/5.5.
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

func TestBoundArithmetic(t *testing.T) {
	// Lower is better: 110 against 100 is 10% worse; 90 is 10% better.
	if got := worseBy(100, 110, "lower"); !near(got, 0.10) {
		t.Errorf("worseBy lower = %v", got)
	}
	if got := worseBy(100, 90, "lower"); !near(got, -0.10) {
		t.Errorf("worseBy lower, better = %v", got)
	}
	// Higher is better: 93 against 100 is 7% worse.
	if got := worseBy(100, 93, "higher"); !near(got, 0.07) {
		t.Errorf("worseBy higher = %v", got)
	}
	if !isBetter(2, 3, "lower") || isBetter(3, 3, "lower") || !isBetter(3, 2, "higher") {
		t.Error("isBetter")
	}
	// A 14.9% loss passes a 15% bound; 15.1% does not.
	for _, c := range []struct {
		v       float64
		regress bool
	}{{114.9, false}, {115.1, true}} {
		if got := judge([]float64{100, 100, 100}, []float64{c.v, c.v, c.v}, "lower", 0.15).result == regressed; got != c.regress {
			t.Errorf("%v against 100 with a 15%% bound: regressed=%v", c.v, got)
		}
	}
}

func TestSummarize(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	s := summarize(d)
	if s.n != 100 || !near(s.p50, 50.5) || !near(s.p99, 99.01) {
		t.Errorf("summarize = %+v", s)
	}
}

func TestCapacityRateIsMedianOfSlices(t *testing.T) {
	// 80 one-document writes spread evenly over 8 ms, plus a stall: the
	// last slice completes nothing extra but the median ignores it.
	var spans []span
	for i := 0; i < 80; i++ {
		at := int64(i) * int64(100*time.Microsecond)
		spans = append(spans, span{Docs: 1, Send: at, Done: at + int64(50*time.Microsecond)})
	}
	med, pooled := capacityRate(spans)
	if med < 9000 || med > 11000 {
		t.Errorf("median slice rate %v, want ~10000 docs/s", med)
	}
	if pooled < 9000 || pooled > 11000 {
		t.Errorf("pooled rate %v, want ~10000 docs/s", pooled)
	}
}
