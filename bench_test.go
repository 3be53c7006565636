package infoshield

// One benchmark per table/figure of the paper (DESIGN.md §4 maps each to
// its experiment runner), plus micro-benchmarks for the pipeline stages.
// Benchmarks run the Small experiment scale so `go test -bench=.` stays
// laptop-friendly; `cmd/experiments -scale full` is the paper-scale path.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"infoshield/internal/align"
	"infoshield/internal/core"
	"infoshield/internal/datagen"
	"infoshield/internal/experiments"
	"infoshield/internal/poa"
	"infoshield/internal/tfidf"
	"infoshield/internal/tokenize"
)

// BenchmarkToyExample covers Tables II-V: the full pipeline on the paper's
// worked example.
func BenchmarkToyExample(b *testing.B) {
	docs := demoCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Detect(docs, Config{})
	}
}

// BenchmarkFig1Precision regenerates Figure 1 (left).
func BenchmarkFig1Precision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig1Precision(io.Discard, experiments.Small)
	}
}

// BenchmarkFig2Scalability regenerates Figure 2 (the runtime sweep is the
// measurement itself; the benchmark wraps one full sweep).
func BenchmarkFig2Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2Scalability(io.Discard, experiments.Small)
	}
}

// BenchmarkTable8Twitter regenerates the Twitter half of Table VIII.
func BenchmarkTable8Twitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table8Twitter(io.Discard, experiments.Small)
	}
}

// BenchmarkTable8HT regenerates the human-trafficking half of Table VIII.
func BenchmarkTable8HT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table8HT(io.Discard, experiments.Small)
	}
}

// BenchmarkTable9Multilingual regenerates Table IX.
func BenchmarkTable9Multilingual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table9Multilingual(io.Discard)
	}
}

// BenchmarkTable10Slots regenerates Table X.
func BenchmarkTable10Slots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table10Slots(io.Discard)
	}
}

// BenchmarkTable11HT regenerates Table XI.
func BenchmarkTable11HT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table11HT(io.Discard)
	}
}

// BenchmarkFig3RelativeLength regenerates Figure 3.
func BenchmarkFig3RelativeLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3RelativeLength(io.Discard, experiments.Small)
	}
}

// BenchmarkFig4Ngram regenerates Figure 4.
func BenchmarkFig4Ngram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4Ngram(io.Discard, experiments.Small)
	}
}

// BenchmarkAblations runs the DESIGN.md §5 ablation suite.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationSlots(io.Discard, experiments.Small)
		experiments.AblationMSA(io.Discard, experiments.Small)
		experiments.AblationConsensusSearch(io.Discard, experiments.Small)
		experiments.AblationCoarseStrictness(io.Discard, experiments.Small)
	}
}

// --- pipeline-stage micro-benchmarks ---

func twitterTexts(b *testing.B, accounts int) []string {
	b.Helper()
	c := datagen.Twitter(datagen.TwitterConfig{Seed: 1, GenuineAccounts: accounts, BotAccounts: accounts})
	return c.Texts()
}

// detectBatchTexts is the detect-batch benchmark's corpus shape: 400
// genuine plus 400 bot accounts of 10 tweets each (8000 documents).
func detectBatchTexts() []string {
	return datagen.Twitter(datagen.TwitterConfig{Seed: 1,
		GenuineAccounts: 400, BotAccounts: 400,
		TweetsPerAccountMin: 10, TweetsPerAccountMax: 10}).Texts()
}

// BenchmarkPipelineEndToEnd measures full Detect throughput on mixed
// corpora of ~2k and ~8k tweets (docs/op scales linearly per Fig 2 /
// Lemma 2; the two sizes track the scaling curve, not just one point).
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for _, accounts := range []int{50, 200} {
		texts := twitterTexts(b, accounts)
		b.Run(fmt.Sprintf("accounts=%d", accounts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Detect(texts, Config{})
			}
		})
	}
}

// BenchmarkCoarse isolates InfoShield-Coarse (tf-idf + components).
func BenchmarkCoarse(b *testing.B) {
	texts := twitterTexts(b, 50)
	var tk tokenize.Tokenizer
	words := make([][]string, len(texts))
	for i, t := range texts {
		words[i] = tk.Tokens(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Coarse(words, core.Options{})
	}
}

// BenchmarkCoarseParallel sweeps the coarse pass's worker pool so the
// scaling curve across cores is tracked, not just the default point.
func BenchmarkCoarseParallel(b *testing.B) {
	texts := twitterTexts(b, 50)
	var tk tokenize.Tokenizer
	words := tk.All(texts, 0)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Coarse(words, core.Options{Workers: workers})
			}
		})
	}
}

// BenchmarkTopPhraseIDs measures the phrase admission batch Coarse and
// the streaming miner run (hashed keys, no string materialization at
// all), into a fresh DF table as batch Coarse calls it, on the mixed
// 50-account corpus and at the detect-batch benchmark's shape.
func BenchmarkTopPhraseIDs(b *testing.B) {
	corpora := []struct {
		name  string
		texts []string
	}{
		{"accounts=50", twitterTexts(b, 50)},
		{"accounts=800x10", detectBatchTexts()},
	}
	for _, c := range corpora {
		var tk tokenize.Tokenizer
		words := tk.All(c.texts, 0)
		vocab := tokenize.NewVocab()
		tokens := make([][]int, len(words))
		for i, w := range words {
			tokens[i] = vocab.Encode(w)
		}
		b.Run(c.name, func(b *testing.B) {
			ex := &tfidf.Extractor{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex.TopPhraseIDs(tokens, vocab, new(tfidf.HashTable), len(tokens))
			}
		})
	}
}

// fineInputs runs the pipeline front half (tokenize → encode → coarse)
// so the fine-stage benchmarks measure refinement alone.
func fineInputs(texts []string) (clusters [][]int, tokens [][]int, top [][]tfidf.PhraseID, v int) {
	var tk tokenize.Tokenizer
	words := tk.All(texts, 0)
	vocab := tokenize.NewVocab()
	tokens = make([][]int, len(words))
	for i, w := range words {
		tokens[i] = vocab.Encode(w)
	}
	clusters, top = core.Coarse(words, core.Options{})
	return clusters, tokens, top, vocab.Size()
}

// BenchmarkFine isolates InfoShield-Fine (screen → MSA → consensus →
// slots) on the mixed 50-account Twitter corpus and at the detect-batch
// benchmark's shape, sweeping the worker pool.
func BenchmarkFine(b *testing.B) {
	corpora := []struct {
		name  string
		texts []string
	}{
		{"accounts=50", twitterTexts(b, 50)},
		{"accounts=800x10", detectBatchTexts()},
	}
	for _, c := range corpora {
		clusters, tokens, top, v := fineInputs(c.texts)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.Refine(clusters, tokens, top, v, core.Options{Workers: workers})
				}
			})
		}
	}
}

// BenchmarkFineSkewed runs the fine pass on the straggler-shaped corpus
// (one mega cluster plus many small ones): the case the largest-first
// schedule exists for. At Workers > 1 the mega-cluster is a straggler,
// so its rounds are pipelined across the pool (core.Straggler).
func BenchmarkFineSkewed(b *testing.B) {
	clusters, tokens, top, v := fineInputs(skewedTexts())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Refine(clusters, tokens, top, v, core.Options{Workers: workers})
			}
		})
	}
}

// BenchmarkPairwiseAlign measures the token-level Needleman-Wunsch on
// tweet-length sequences (the Fine pass's inner loop).
func BenchmarkPairwiseAlign(b *testing.B) {
	ref := make([]int, 30)
	doc := make([]int, 32)
	for i := range ref {
		ref[i] = i
	}
	copy(doc, ref)
	doc[7] = 99
	doc[30], doc[31] = 100, 101
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.Pairwise(ref, doc)
	}
}

// BenchmarkPOABuild measures partial-order alignment of a 20-document
// near-duplicate cluster.
func BenchmarkPOABuild(b *testing.B) {
	base := make([]int, 25)
	for i := range base {
		base[i] = i
	}
	seqs := make([][]int, 20)
	for s := range seqs {
		dup := append([]int(nil), base...)
		dup[s%len(dup)] = 1000 + s
		seqs[s] = dup
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poa.Build(seqs)
	}
}

// BenchmarkStreamDetector measures incremental template matching (the
// per-document cost of the streaming deployment path).
func BenchmarkStreamDetector(b *testing.B) {
	s := NewStreamDetector(Config{}, 1<<30)
	var docs []string
	for i := 0; i < 25; i++ {
		docs = append(docs, "flash sale grab the deluxe winter bundle now at shop.example today")
	}
	for i := 0; i < 300; i++ {
		docs = append(docs, fmt.Sprintf(
			"sb%daa sb%dbb sb%dcc sb%ddd sb%dee sb%dff sb%dgg sb%dhh", i, i, i, i, i, i, i, i))
	}
	s.AddBatch(docs)
	s.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add("flash sale grab the deluxe winter bundle now at shop.example today")
	}
}

// seedStreamTemplates mines `campaigns` distinct templates into s by
// flushing one strongly-templated near-duplicate cluster per campaign
// (entirely disjoint vocabularies, so the coarse pass cannot merge them).
// It returns a probe text that matches campaign 0.
func seedStreamTemplates(b *testing.B, s *StreamDetector, campaigns int) string {
	b.Helper()
	var docs []string
	for c := 0; c < campaigns; c++ {
		for i := 0; i < 8; i++ {
			docs = append(docs, fmt.Sprintf(
				"promo%03da alpha%03db beta%03dc gamma%03dd delta%03de epsilon%03df visit site%03d-%02d.example now",
				c, c, c, c, c, c, c, i))
		}
	}
	s.AddBatch(docs)
	s.Flush()
	if got := s.NumTemplates(); got < campaigns*9/10 {
		b.Fatalf("seeded only %d/%d templates", got, campaigns)
	}
	return "promo000a alpha000b beta000c gamma000d delta000e epsilon000f visit site000-99.example now"
}

// BenchmarkStreamAdd measures the steady-state per-document serving cost
// with many mined templates — the regime where the detector has succeeded
// and every incoming document must be screened against hundreds of
// campaigns (the inverted-index pruning path's reason to exist).
func BenchmarkStreamAdd(b *testing.B) {
	s := NewStreamDetector(Config{}, 1<<30)
	probe := seedStreamTemplates(b, s, 220)
	before := s.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(probe)
	}
	b.StopTimer()
	st := s.Stats()
	if c := st.Candidates - before.Candidates; c > 0 {
		b.ReportMetric(float64(st.DPPruned-before.DPPruned)/float64(c), "dpskip/candidate")
	}
}

// BenchmarkStreamAddBatch sweeps the batched serving path's worker pool
// at the same many-templates steady state.
func BenchmarkStreamAddBatch(b *testing.B) {
	const batch = 64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := NewStreamDetector(Config{Workers: workers}, 1<<30)
			seedStreamTemplates(b, s, 220)
			texts := make([]string, batch)
			for i := range texts {
				c := i % 220
				texts[i] = fmt.Sprintf(
					"promo%03da alpha%03db beta%03dc gamma%03dd delta%03de epsilon%03df visit site%03d-%02d.example now",
					c, c, c, c, c, c, c, 90+i%10)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AddBatch(texts)
			}
		})
	}
}

// BenchmarkStreamAddScale pins the template-count scaling curve of the
// serving path: steady-state Add cost against 1k/10k/100k bulk-loaded
// multi-market templates (datagen.ScaleTemplates — market-local rare
// vocabulary plus shared serving words that exercise the saturated-token
// tier). dpskip/candidate is the DP-skip rate at that scale and
// cand/probe the mean candidate set surviving the tiered index; sublinear
// scaling means ns/op grows far slower than the template count.
func BenchmarkStreamAddScale(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("templates=%d", n), func(b *testing.B) {
			s := NewStreamDetector(Config{}, 1<<30)
			set := datagen.ScaleTemplates(datagen.ScaleConfig{Seed: 1, Templates: n})
			for _, tmpl := range set.Templates {
				if _, err := s.RegisterTemplate(tmpl.Words, tmpl.Wild); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(2))
			probes := make([]string, 512)
			for i := range probes {
				if i%8 == 7 {
					probes[i] = set.Noise(rng)
				} else {
					probes[i] = set.Probe(rng, rng.Intn(n))
				}
			}
			before := s.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(probes[i%len(probes)])
			}
			b.StopTimer()
			st := s.Stats()
			if c := st.Candidates - before.Candidates; c > 0 {
				b.ReportMetric(float64(st.DPPruned-before.DPPruned)/float64(c), "dpskip/candidate")
				b.ReportMetric(float64(st.Examined-before.Examined)/float64(st.Probes-before.Probes), "cand/probe")
			}
		})
	}
}

// BenchmarkTokenizer measures raw tokenization throughput: one mixed
// sentence, and every text of the detect-batch corpus (about 45% of its
// tweets are non-ASCII and take the Unicode path), reported per document.
func BenchmarkTokenizer(b *testing.B) {
	var tk tokenize.Tokenizer
	b.Run("sentence", func(b *testing.B) {
		text := "Honestly we watched the golden sunset near the misty harbor, call 123-456.7890 or visit example.test 今日は映画"
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			tk.Tokens(text)
		}
	})
	b.Run("detect-batch", func(b *testing.B) {
		texts := detectBatchTexts()
		bytes := 0
		for _, t := range texts {
			bytes += len(t)
		}
		b.SetBytes(int64(bytes))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range texts {
				tk.Tokens(t)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(texts)), "ns/doc")
	})
}
