// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the synthetic data substitutes: one exported
// runner per artifact, each printing the same rows/series the paper
// reports. Absolute numbers differ (the substrate is synthetic); the
// shapes — who wins, by roughly what factor, where curves flatten — are
// the reproduction targets. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"

	"infoshield/internal/core"
	"infoshield/internal/corpus"
	"infoshield/internal/metrics"
)

// Scale trades fidelity for runtime across every experiment. Full
// approximates the paper's data sizes on a laptop budget; Small keeps CI
// and benchmarks fast.
type Scale int

// Available scales.
const (
	Small Scale = iota
	Medium
	Full
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "full":
		return Full, nil
	}
	return Small, fmt.Errorf("unknown scale %q (want small|medium|full)", s)
}

// pick returns the value for the current scale.
func (s Scale) pick(small, medium, full int) int {
	switch s {
	case Full:
		return full
	case Medium:
		return medium
	default:
		return small
	}
}

func (s Scale) pickF(small, medium, full float64) float64 {
	switch s {
	case Full:
		return full
	case Medium:
		return medium
	default:
		return small
	}
}

// truth extracts the binary ground-truth labels.
func truth(c *corpus.Corpus) []bool {
	out := make([]bool, c.Len())
	for i := range c.Docs {
		out[i] = c.Docs[i].Label
	}
	return out
}

// clusterTruth extracts the ground-truth cluster labels (-1 = none).
func clusterTruth(c *corpus.Corpus) []int {
	out := make([]int, c.Len())
	for i := range c.Docs {
		out[i] = c.Docs[i].ClusterLabel
	}
	return out
}

// row formats one Table-VIII-style metrics row.
func row(w io.Writer, name string, ari float64, hasARI bool, conf metrics.Confusion) {
	ariStr := "  n/a"
	if hasARI {
		ariStr = fmt.Sprintf("%5.1f", ari*100)
	}
	fmt.Fprintf(w, "%-14s %s %6.1f %6.1f %6.1f\n",
		name, ariStr, conf.Precision()*100, conf.Recall()*100, conf.F1()*100)
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-14s %5s %6s %6s %6s\n", "method", "ARI", "Prec", "Rec", "F1")
}

// runInfoShield evaluates the pipeline on a corpus and returns its result
// plus metrics.
func runInfoShield(c *corpus.Corpus, opt core.Options) (*core.Result, metrics.Confusion, float64) {
	res := core.Run(c.Texts(), opt)
	conf := metrics.NewConfusion(res.Suspicious(), truth(c))
	ari := metrics.ARI(res.DocTemplate, clusterTruth(c))
	return res, conf, ari
}
