package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"infoshield/internal/baselines"
	"infoshield/internal/core"
	"infoshield/internal/embed"
	"infoshield/internal/mdl"
	"infoshield/internal/metrics"
	"infoshield/internal/viz"
)

// Table8HT reproduces the human-trafficking half of Table VIII:
// InfoShield against the three embedding-clustering baselines on the
// Trafficking10k-style and Cluster-Trafficking-style corpora. HTDN is not
// runnable (it needs the real multimodal labeled data); its published
// numbers are quoted in EXPERIMENTS.md for context.
func Table8HT(w io.Writer, scale Scale) {
	embCfg := func(epochs int) embed.Config {
		return embed.Config{Dim: scale.pick(16, 32, 50), Epochs: epochs, Seed: 1}
	}

	// --- Trafficking10k ---
	t10k := datagenT10k(scale)
	tr := truth(t10k)
	header(w, fmt.Sprintf("Table VIII — Trafficking10k (%d ads)", t10k.Len()))
	_, conf, _ := runInfoShield(t10k, core.Options{})
	row(w, "InfoShield", 0, false, conf)
	texts := t10k.Texts()
	row(w, "Word2Vec-cl", 0, false,
		metrics.NewConfusion(baselines.Word2VecCl(texts, embCfg(4)).Pred, tr))
	row(w, "Doc2Vec-cl", 0, false,
		metrics.NewConfusion(baselines.Doc2VecCl(texts, embCfg(40)).Pred, tr))
	row(w, "FastText-cl", 0, false,
		metrics.NewConfusion(baselines.FastTextCl(texts, embCfg(3)).Pred, tr))
	fmt.Fprintf(w, "%-14s %5s  (paper-reported, not rerunnable: needs the real multimodal data)\n", "HTDN", "—")

	// --- Cluster Trafficking ---
	ct := datagenCT(scale)
	tr, ct2 := truth(ct), clusterTruth(ct)
	header(w, fmt.Sprintf("Table VIII — Cluster Trafficking (%d ads)", ct.Len()))
	_, conf, ari := runInfoShield(ct, core.Options{})
	row(w, "InfoShield", ari, true, conf)
	texts = ct.Texts()
	res := baselines.Word2VecCl(texts, embCfg(4))
	row(w, "Word2Vec-cl", metrics.ARI(res.Clusters, ct2), true, metrics.NewConfusion(res.Pred, tr))
	res = baselines.Doc2VecCl(texts, embCfg(40))
	row(w, "Doc2Vec-cl", metrics.ARI(res.Clusters, ct2), true, metrics.NewConfusion(res.Pred, tr))
	res = baselines.FastTextCl(texts, embCfg(3))
	row(w, "FastText-cl", metrics.ARI(res.Clusters, ct2), true, metrics.NewConfusion(res.Pred, tr))
	res = baselines.TemplateMatching{}.Run(texts)
	row(w, "TemplateMatch", metrics.ARI(res.Clusters, ct2), true, metrics.NewConfusion(res.Pred, tr))
}

// fig3Point is one template's position in Figure 3's space.
type fig3Point struct {
	docs   int
	rl, lb float64
	kind   string
}

// fig3Points runs the pipeline on the Cluster-Trafficking corpus and
// returns one point per template: the template is the micro-cluster unit
// that carries the spam/HT/benign distinction (a coarse component can
// legitimately span several campaigns that share ad boilerplate; Fine
// separates them into templates).
func fig3Points(scale Scale) (pts []fig3Point, vocabSize int) {
	ct := datagenCT(scale)
	res := core.Run(ct.Texts(), core.Options{})
	V := res.Vocab.Size()
	for i := range res.Clusters {
		for _, tr := range res.Clusters[i].Templates {
			counts := map[string]int{}
			for _, d := range tr.Docs {
				counts[ct.Docs[d].Account]++
			}
			pts = append(pts, fig3Point{
				docs: len(tr.Docs),
				rl:   mdl.RelativeLength(tr.CostAfter, tr.CostBefore),
				lb:   mdl.LowerBound(1, len(tr.Docs), V),
				kind: fig3Kind(counts),
			})
		}
	}
	return pts, V
}

// fig3Kind labels a template with the population ("spam", "ht" or
// "normal") holding most of its documents. A tie goes to the kind listed
// first, in that order, so the label never depends on map order.
func fig3Kind(counts map[string]int) string {
	kind, best := "normal", 0
	for _, k := range []string{"spam", "ht", "normal"} {
		if c := counts[k]; c > best {
			kind, best = k, c
		}
	}
	return kind
}

// Fig3RelativeLength reproduces Figure 3: every discovered micro-cluster
// plotted as (relative length, #documents), against the Lemma-1 lower
// bound, with spam and HT clusters marked. The target shapes: all points
// at or above the bound; spam clusters hugging the bound at large n; HT
// clusters between; benign clusters small and nearer 1.
func Fig3RelativeLength(w io.Writer, scale Scale) {
	fmt.Fprintf(w, "\n== Figure 3: relative length vs cluster size ==\n")
	pts, _ := fig3Points(scale)
	violations := 0
	for _, p := range pts {
		if p.rl < p.lb-1e-9 {
			violations++
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].docs > pts[j].docs })
	fmt.Fprintf(w, "%8s %5s %10s %10s %8s\n", "docs", "tmpl", "rel.len", "lower.bd", "kind")
	limit := 25
	for i, p := range pts {
		if i >= limit {
			fmt.Fprintf(w, "... (%d more clusters)\n", len(pts)-limit)
			break
		}
		fmt.Fprintf(w, "%8d %5d %10.4f %10.4f %8s\n", p.docs, 1, p.rl, p.lb, p.kind)
	}
	fmt.Fprintf(w, "lower-bound violations: %d of %d clusters\n", violations, len(pts))
	// Separation summary: geometric-mean relative length per kind.
	stats := map[string][]float64{}
	sizes := map[string][]float64{}
	for _, p := range pts {
		stats[p.kind] = append(stats[p.kind], p.rl)
		sizes[p.kind] = append(sizes[p.kind], float64(p.docs))
	}
	fmt.Fprintf(w, "%8s %8s %12s %12s\n", "kind", "clusters", "gm rel.len", "gm size")
	for _, kind := range []string{"spam", "ht", "normal"} {
		if len(stats[kind]) == 0 {
			continue
		}
		fmt.Fprintf(w, "%8s %8d %12.4f %12.1f\n",
			kind, len(stats[kind]), geoMean(stats[kind]), geoMean(sizes[kind]))
	}
}

// Fig3SVG renders Figure 3 as an actual scatter figure: relative length
// (x, log) vs cluster size (y, log), spam red, HT blue, benign gray, with
// the t=1 Lemma-1 lower-bound curve.
func Fig3SVG(w io.Writer, scale Scale) error {
	pts, V := fig3Points(scale)
	colors := map[string]string{"spam": "#d62728", "ht": "#1f77b4", "normal": "#999999"}
	names := map[string]string{"spam": "spam", "ht": "HT", "normal": "benign"}
	var series []viz.Series
	for _, kind := range []string{"normal", "spam", "ht"} {
		s := viz.Series{Name: names[kind], Color: colors[kind]}
		for _, p := range pts {
			if p.kind == kind {
				s.X = append(s.X, p.rl)
				s.Y = append(s.Y, float64(p.docs))
			}
		}
		if len(s.X) > 0 {
			series = append(series, s)
		}
	}
	// Lower bound for t=1: rl = 1/n + 1/lgV  =>  parametrize by n.
	bound := viz.Curve{Name: "lower bound (t=1)", Color: "#000000"}
	maxN := 2
	for _, p := range pts {
		if p.docs > maxN {
			maxN = p.docs
		}
	}
	for n := 2; n <= maxN*2; n = n*3/2 + 1 {
		bound.X = append(bound.X, mdl.LowerBound(1, n, V))
		bound.Y = append(bound.Y, float64(n))
	}
	return viz.ScatterSVG(w, "Figure 3: clusters in (relative length, size) space",
		"relative length", "documents in cluster", true, true,
		series, []viz.Curve{bound})
}

func geoMean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
