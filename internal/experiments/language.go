package experiments

import (
	"fmt"
	"io"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
	"infoshield/internal/metrics"
	"infoshield/internal/tokenize"
)

// LanguageBreakdown quantifies the paper's Advantage 1 (generality): the
// identical pipeline, with no language-specific configuration, is scored
// separately on each language's tweets in a single mixed corpus —
// including unspaced Japanese, the hardest case for token methods.
func LanguageBreakdown(w io.Writer, scale Scale) {
	fmt.Fprintf(w, "\n== Language independence: per-language metrics, one mixed run ==\n")
	accounts := scale.pick(60, 150, 400)
	langs := []datagen.Language{datagen.English, datagen.Spanish, datagen.Italian, datagen.Japanese}
	c := datagen.Twitter(datagen.TwitterConfig{
		Seed:            505,
		GenuineAccounts: accounts,
		BotAccounts:     accounts,
		Languages:       langs,
	})
	res := core.Run(c.Texts(), core.Options{})
	pred := res.Suspicious()

	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s\n", "language", "tweets", "Prec", "Rec", "F1")
	for _, lang := range []string{"english", "spanish", "italian", "japanese"} {
		var p, t []bool
		for i := range c.Docs {
			if c.Docs[i].Lang != lang {
				continue
			}
			p = append(p, pred[i])
			t = append(t, c.Docs[i].Label)
		}
		if len(p) == 0 {
			continue
		}
		conf := metrics.NewConfusion(p, t)
		fmt.Fprintf(w, "%-10s %8d %8.3f %8.3f %8.3f\n",
			lang, len(p), conf.Precision(), conf.Recall(), conf.F1())
	}
}

// AblationTopFraction sweeps the coarse pass's top-phrase fraction (the
// paper fixes 10%): too small starves the graph of edges (recall drops);
// too large admits weaker phrases (precision pressure, more runtime).
func AblationTopFraction(w io.Writer, scale Scale) {
	fmt.Fprintf(w, "\n== Ablation: coarse top-phrase fraction ==\n")
	c := twitterTestSet(606, scale.pick(50, 120, 300))
	tr := truth(c)
	fmt.Fprintf(w, "%10s %8s %8s %8s %10s\n", "fraction", "Prec", "Rec", "F1", "edges/doc")
	var tk tokenize.Tokenizer
	words := make([][]string, c.Len())
	for i := range c.Docs {
		words[i] = tk.Tokens(c.Docs[i].Text)
	}
	for _, frac := range []float64{0.02, 0.05, 0.10, 0.20, 0.40} {
		res := core.Run(c.Texts(), core.Options{TopFraction: frac})
		conf := metrics.NewConfusion(res.Suspicious(), tr)
		_, top := core.Coarse(words, core.Options{TopFraction: frac})
		edges := 0
		for _, ps := range top {
			edges += len(ps)
		}
		fmt.Fprintf(w, "%10.2f %8.3f %8.3f %8.3f %10.2f\n",
			frac, conf.Precision(), conf.Recall(), conf.F1(),
			float64(edges)/float64(c.Len()))
	}
}
