package experiments

import (
	"fmt"
	"io"
	"time"

	"infoshield/internal/core"
	"infoshield/internal/metrics"
	"infoshield/internal/poa"
	"infoshield/internal/search"
	"infoshield/internal/template"
)

// AblationSlots measures what slot detection buys: total coding cost and
// detection metrics with and without slots (DESIGN.md §5).
func AblationSlots(w io.Writer, scale Scale) {
	fmt.Fprintf(w, "\n== Ablation: slot detection on/off ==\n")
	c := datagenCT(scale)
	tr := truth(c)
	fmt.Fprintf(w, "%-10s %12s %12s %8s %8s %8s\n",
		"slots", "cost.after", "rel.len(gm)", "tmpls", "Prec", "Rec")
	for _, disable := range []bool{false, true} {
		res := core.Run(c.Texts(), core.Options{DisableSlots: disable})
		total := 0.0
		var rls []float64
		for i := range res.Clusters {
			total += res.Clusters[i].CostAfter
			rls = append(rls, res.Clusters[i].RelativeLength())
		}
		conf := metrics.NewConfusion(res.Suspicious(), tr)
		name := "on"
		if disable {
			name = "off"
		}
		gm := 1.0
		if len(rls) > 0 {
			gm = geoMean(rls)
		}
		fmt.Fprintf(w, "%-10s %12.0f %12.4f %8d %8.3f %8.3f\n",
			name, total, gm, res.NumTemplates(), conf.Precision(), conf.Recall())
	}
}

// AblationMSA compares Partial Order Alignment against the cheap star
// MSA — the paper claims Fine is MSA-agnostic; this quantifies the cost
// and quality gap.
func AblationMSA(w io.Writer, scale Scale) {
	fmt.Fprintf(w, "\n== Ablation: POA vs star MSA ==\n")
	c := datagenCT(scale)
	tr := truth(c)
	fmt.Fprintf(w, "%-6s %10s %12s %8s %8s %8s\n", "msa", "seconds", "cost.after", "tmpls", "Prec", "Rec")
	for _, star := range []bool{false, true} {
		start := time.Now()
		res := core.Run(c.Texts(), core.Options{UseStarMSA: star})
		secs := time.Since(start).Seconds()
		total := 0.0
		for i := range res.Clusters {
			total += res.Clusters[i].CostAfter
		}
		conf := metrics.NewConfusion(res.Suspicious(), tr)
		name := "poa"
		if star {
			name = "star"
		}
		fmt.Fprintf(w, "%-6s %10.2f %12.0f %8d %8.3f %8.3f\n",
			name, secs, total, res.NumTemplates(), conf.Precision(), conf.Recall())
	}
}

// AblationConsensusSearch compares the dichotomous threshold search
// (Algorithm 2) against exhaustive search — the oracle — on real cluster
// alignments: how often it finds the optimum and the cost gap when not.
func AblationConsensusSearch(w io.Writer, scale Scale) {
	fmt.Fprintf(w, "\n== Ablation: dichotomous vs exhaustive consensus search ==\n")
	c := datagenCT(scale)
	res := core.Run(c.Texts(), core.Options{})
	V := res.Vocab.Size()
	total, optimal := 0, 0
	gap := 0.0
	evalsDich, evalsExh := 0, 0
	for i := range res.Clusters {
		for _, trr := range res.Clusters[i].Templates {
			if len(trr.Docs) < 2 {
				continue
			}
			seqs := make([][]int, 0, len(trr.Docs))
			for _, d := range trr.Docs {
				seqs = append(seqs, res.Tokens[d])
			}
			m := poa.Build(seqs)
			n := m.NumRows()
			cost := func(counter *int) func(int) float64 {
				return func(h int) float64 {
					*counter++
					return template.New(m, h).TotalCost(1, V)
				}
			}
			hd := search.Dichotomous(0, n-1, cost(&evalsDich))
			he := search.Exhaustive(0, n-1, cost(&evalsExh))
			cd := template.New(m, hd).TotalCost(1, V)
			ce := template.New(m, he).TotalCost(1, V)
			total++
			if cd <= ce+1e-9 {
				optimal++
			} else {
				gap += (cd - ce) / ce
			}
		}
	}
	fmt.Fprintf(w, "alignments: %d; dichotomous optimal: %d (%.1f%%)\n",
		total, optimal, 100*float64(optimal)/float64(max(total, 1)))
	if total > optimal {
		fmt.Fprintf(w, "mean relative cost gap when suboptimal: %.4f%%\n",
			100*gap/float64(total-optimal))
	}
	fmt.Fprintf(w, "cost evaluations: dichotomous %d vs exhaustive %d (%.1fx fewer)\n",
		evalsDich, evalsExh, float64(evalsExh)/float64(max(evalsDich, 1)))
}

// AblationCoarseMethod compares the default tf-idf phrase-graph coarse
// pass against the MinHash-LSH alternative — Advantage 2 in the paper:
// the pre-clustering algorithm is replaceable.
func AblationCoarseMethod(w io.Writer, scale Scale) {
	fmt.Fprintf(w, "\n== Ablation: coarse method (tf-idf graph vs MinHash-LSH) ==\n")
	c := twitterTestSet(707, scale.pick(50, 120, 300))
	tr := truth(c)
	fmt.Fprintf(w, "%-8s %10s %8s %8s %8s %8s\n", "coarse", "seconds", "Prec", "Rec", "F1", "tmpls")
	row := func(name string, secs float64, sus []bool, templates int) {
		conf := metrics.NewConfusion(sus, tr)
		fmt.Fprintf(w, "%-8s %10.2f %8.3f %8.3f %8.3f %8d\n",
			name, secs, conf.Precision(), conf.Recall(), conf.F1(), templates)
	}
	start := time.Now()
	res := core.Run(c.Texts(), core.Options{})
	row("tfidf", time.Since(start).Seconds(), res.Suspicious(), res.NumTemplates())
	start = time.Now()
	refined := runLSH(c.Texts(), 0)
	secs := time.Since(start).Seconds()
	sus, templates := labels(refined, c.Len())
	row("lsh", secs, sus, templates)
}

// AblationCoarseStrictness measures the recall cost of requiring more
// shared phrases per coarse edge (the permissiveness the paper argues
// for).
func AblationCoarseStrictness(w io.Writer, scale Scale) {
	fmt.Fprintf(w, "\n== Ablation: coarse edge strictness ==\n")
	c := twitterTestSet(404, scale.pick(50, 120, 300))
	tr := truth(c)
	fmt.Fprintf(w, "%12s %8s %8s %8s\n", "min.shared", "Prec", "Rec", "F1")
	for _, minShared := range []int{1, 2, 3, 5} {
		sus, _ := labels(runStrict(c.Texts(), minShared, 0), c.Len())
		conf := metrics.NewConfusion(sus, tr)
		fmt.Fprintf(w, "%12d %8.3f %8.3f %8.3f\n",
			minShared, conf.Precision(), conf.Recall(), conf.F1())
	}
}
