package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// verdict is the judgement on one workload × metric, by the rules of the
// choosing-metrics method: a gain needs nine tenths of the pairs and a
// median shift beyond the baseline's quartile spread; a loss beyond the
// bound is a regression unless the spread itself exceeds the bound and
// the two sides' runs overlap, which leaves it unresolved.
type verdict struct {
	a, b          [3]float64 // quartiles of each side
	wins, pairs   int        // pairs in which B beat A
	worse, spread float64    // B's median worsening and the wider side's spread, as shares
	result        string
}

const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

func judge(a, b []float64, better string, bound float64) verdict {
	var v verdict
	v.a[0], v.a[1], v.a[2] = quartiles(a)
	v.b[0], v.b[1], v.b[2] = quartiles(b)
	v.pairs = min(len(a), len(b))
	for i := 0; i < v.pairs; i++ {
		if isBetter(b[i], a[i], better) {
			v.wins++
		}
	}
	v.worse = worseBy(v.a[1], v.b[1], better)
	v.spread = math.Max(relSpread(a), relSpread(b))
	sa, sb := sortedCopy(a), sortedCopy(b)
	// allBetter: every B run beats every A run.
	allBetter := isBetter(worstOf(sb, better), bestOf(sa, better), better)
	overlap := !allBetter && !isBetter(worstOf(sa, better), bestOf(sb, better), better)
	switch {
	case v.worse < 0 && v.pairs > 0 && 10*v.wins >= 9*v.pairs && math.Abs(v.b[1]-v.a[1]) > v.a[2]-v.a[0]:
		v.result = improved
	case v.worse > bound && v.spread > bound && overlap:
		v.result = unresolved
	case v.worse > bound:
		v.result = regressed
	case v.spread > bound && !allBetter:
		v.result = unresolved
	default:
		v.result = unchanged
	}
	return v
}

func bestOf(sorted []float64, better string) float64 {
	if better == "higher" {
		return sorted[len(sorted)-1]
	}
	return sorted[0]
}

func worstOf(sorted []float64, better string) float64 {
	if better == "higher" {
		return sorted[0]
	}
	return sorted[len(sorted)-1]
}

// errNotComparable reports runs whose fingerprints differ.
var errNotComparable = errors.New("runs are not comparable")

// compareRuns prints, for every workload and end-to-end metric, each
// side's median and quartiles, the pair wins and the verdict. It returns
// whether any metric regressed or any workload's failure share rose, and
// errNotComparable when the runs' fingerprints differ.
func compareRuns(out io.Writer, bf *benchmarkFile, a, b []*runFile) (bad bool, err error) {
	if len(a) == 0 || len(b) == 0 {
		return false, errors.New("compare needs at least one run on each side of --")
	}
	var w strings.Builder
	printf := func(format string, args ...any) { fmt.Fprintf(&w, format, args...) }
	defer func() {
		if _, werr := io.WriteString(out, w.String()); err == nil {
			err = werr
		}
	}()
	ref := a[0].Fingerprint
	for _, rf := range append(append([]*runFile(nil), a...), b...) {
		if rf.Fingerprint != ref {
			printf("not comparable: %s seed %d ran with %+v, the first A run with %+v\n",
				rf.Workload, rf.Seed, rf.Fingerprint, ref)
			return false, errNotComparable
		}
	}
	byWorkload := func(runs []*runFile) map[string][]*runFile {
		m := map[string][]*runFile{}
		for _, rf := range runs {
			m[rf.Workload] = append(m[rf.Workload], rf)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for name := range wa {
		if _, ok := wb[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	printf("%-18s %-20s %26s %26s %6s %7s %7s  %s\n",
		"workload", "metric", "A q1/median/q3", "B q1/median/q3", "wins", "median", "spread", "verdict")
	for _, name := range names {
		ra, rb := wa[name], wb[name]
		for _, m := range bf.EndToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(va, vb, m.Better, m.Bound)
			if v.result == regressed {
				bad = true
			}
			printf("%-18s %-20s %26s %26s %3d/%-2d %+6.1f%% %6.1f%%  %s (bound %.0f%%)\n",
				name, m.Name, fmtQuartiles(v.a), fmtQuartiles(v.b), v.wins, v.pairs,
				100*(v.b[1]-v.a[1])/math.Abs(v.a[1]), 100*v.spread, v.result, 100*m.Bound)
		}
		fa, fb := failFrac(ra), failFrac(rb)
		printf("%-18s %-20s %26.4g %26.4g\n", name, "fail_frac", fa, fb)
		if fb > fa {
			printf("%-18s fail_frac rose\n", name)
			bad = true
		}
	}
	return bad, nil
}

func metricValues(runs []*runFile, name string) []float64 {
	var v []float64
	for _, rf := range runs {
		if m, ok := rf.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func failFrac(runs []*runFile) float64 {
	var att, failed int64
	for _, rf := range runs {
		att += rf.Attempted
		failed += rf.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

func fmtQuartiles(q [3]float64) string {
	return fmt.Sprintf("%.4g/%.4g/%.4g", q[0], q[1], q[2])
}
