package main

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func TestJudgeNineOfTenWins(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	b := []float64{90, 91, 89, 90, 92, 88, 90, 91, 98.5, 101.5} // the last pair is a loss
	v := judge(a, b, "lower", 0.10)
	if v.wins != 9 || v.pairs != 10 {
		t.Fatalf("wins %d/%d, want 9/10", v.wins, v.pairs)
	}
	if v.result != improved {
		t.Errorf("9 of 10 wins with a shift beyond the spread: %s, want %s", v.result, improved)
	}
	// Eight wins are not enough.
	b[7] = 101.5
	if v := judge(a, b, "lower", 0.10); v.result == improved {
		t.Errorf("8 of 10 wins judged %s", v.result)
	}
}

func TestJudgeUnresolvedSpread(t *testing.T) {
	// Both sides spread far wider than the 5% bound and overlap: a
	// worse median is unresolved, not a regression.
	a := []float64{80, 120, 90, 110, 100, 70, 130, 95, 105, 100}
	b := []float64{85, 125, 95, 115, 108, 75, 135, 100, 110, 106}
	v := judge(a, b, "lower", 0.05)
	if v.result != unresolved {
		t.Errorf("overlapping wide runs: %s (worse %.3f spread %.3f), want %s", v.result, v.worse, v.spread, unresolved)
	}
	// A small shift within a spread wider than the bound is unresolved
	// too, unless every new run beats every old one.
	if v := judge(a, a, "lower", 0.05); v.result != unresolved {
		t.Errorf("identical wide runs: %s, want %s", v.result, unresolved)
	}
	// Tight runs with a shift under the bound are unchanged; beyond it,
	// regressed.
	tight := []float64{100, 100.5, 99.5, 100, 100.2}
	if v := judge(tight, []float64{101, 101.5, 100.5, 101, 101.2}, "lower", 0.05); v.result != unchanged {
		t.Errorf("1%% shift, tight runs: %s, want %s", v.result, unchanged)
	}
	if v := judge(tight, []float64{110, 110.5, 109.5, 110, 110.2}, "lower", 0.05); v.result != regressed {
		t.Errorf("10%% loss, tight runs: %s, want %s", v.result, regressed)
	}
	// Higher-is-better metrics regress downwards.
	if v := judge(tight, []float64{90, 90.5, 89.5, 90, 90.2}, "higher", 0.05); v.result != regressed {
		t.Errorf("10%% throughput loss: %s, want %s", v.result, regressed)
	}
}

func testBenchFile() *benchmarkFile {
	var bf benchmarkFile
	bf.EndToEnd = append(bf.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"p50_ms.low", "ms", "lower", 0.10})
	return &bf
}

func run1(fp fingerprint, v float64, failed int64) *runFile {
	return &runFile{Workload: "ingest-single", Fingerprint: fp, Attempted: 100, Failed: failed,
		Metrics: map[string]metricValue{"p50_ms.low": {Value: v, Unit: "ms"}}}
}

func TestCompareFingerprintMismatch(t *testing.T) {
	fp := fingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1.22", Seconds: 10}
	other := fp
	other.NProc = 4
	var out strings.Builder
	_, err := compareRuns(&out, testBenchFile(), []*runFile{run1(fp, 1, 0)}, []*runFile{run1(other, 1, 0)})
	if !errors.Is(err, errNotComparable) {
		t.Fatalf("err = %v, want errNotComparable", err)
	}
	if !strings.Contains(out.String(), "not comparable") {
		t.Errorf("output does not say the runs are not comparable:\n%s", out.String())
	}
	// A different run length is a different fingerprint too.
	other = fp
	other.Seconds = 20
	if _, err := compareRuns(io.Discard, testBenchFile(), []*runFile{run1(fp, 1, 0)}, []*runFile{run1(other, 1, 0)}); !errors.Is(err, errNotComparable) {
		t.Errorf("different run lengths compared: %v", err)
	}
}

func TestCompareFlagsRegressionAndFailures(t *testing.T) {
	fp := fingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1.22", Seconds: 10}
	same := func(v float64, failed int64) []*runFile {
		return []*runFile{run1(fp, v, failed), run1(fp, v*1.001, failed), run1(fp, v*0.999, failed)}
	}
	for _, c := range []struct {
		name string
		a, b []*runFile
		bad  bool
	}{
		{"no change", same(1, 0), same(1, 0), false},
		{"regression", same(1, 0), same(1.2, 0), true},
		{"failures rose", same(1, 0), same(1, 1), true},
	} {
		bad, err := compareRuns(io.Discard, testBenchFile(), c.a, c.b)
		if err != nil || bad != c.bad {
			t.Errorf("%s: bad=%v err=%v, want bad=%v", c.name, bad, err, c.bad)
		}
	}
}
