package experiments

import (
	"infoshield/internal/core"
	"infoshield/internal/graph"
	"infoshield/internal/lsh"
	"infoshield/internal/tfidf"
	"infoshield/internal/tokenize"
)

// runLSH runs the pipeline with coarseLSH in place of the tf-idf phrase
// graph.
func runLSH(texts []string, workers int) [][]core.TemplateResult {
	return refineWith(texts, workers, func(words [][]string) ([][]int, [][]tfidf.PhraseID) {
		return coarseLSH(words, workers)
	})
}

// runStrict runs the pipeline with coarse edges that need minShared top
// phrases in common (minShared <= 1 is the pipeline's own graph).
func runStrict(texts []string, minShared, workers int) [][]core.TemplateResult {
	return refineWith(texts, workers, func(words [][]string) ([][]int, [][]tfidf.PhraseID) {
		clusters, top := core.Coarse(words, core.Options{Workers: workers})
		if minShared > 1 {
			clusters = coarseStrict(top, len(words), minShared)
		}
		return clusters, top
	})
}

// refineWith splits and encodes texts as core.Run does, then mines the
// clusters and per-document phrases pass returns with core.Refine,
// priced at the corpus V as core.Run prices them.
func refineWith(texts []string, workers int, pass func(words [][]string) ([][]int, [][]tfidf.PhraseID)) [][]core.TemplateResult {
	var tk tokenize.Tokenizer
	words := tk.All(texts, workers)
	vocab := tokenize.NewVocab()
	tokens := make([][]int, len(texts))
	for i, w := range words {
		tokens[i] = vocab.Encode(w)
	}
	clusters, top := pass(words)
	refined, _ := core.Refine(clusters, tokens, top, vocab.Size(), core.Options{Workers: workers})
	return refined
}

// labels is core.Result's Suspicious and NumTemplates over refined
// template lists of an n-document corpus.
func labels(refined [][]core.TemplateResult, n int) (suspicious []bool, templates int) {
	suspicious = make([]bool, n)
	for _, trs := range refined {
		for _, tr := range trs {
			for _, d := range tr.Docs {
				suspicious[d] = true
			}
		}
		templates += len(trs)
	}
	return suspicious, templates
}

// coarseLSH is the alternative coarse pass: MinHash signatures over token
// 2-shingles with LSH banding, instead of the tf-idf phrase graph. Fine's
// neighbor index needs per-document "phrases", so every member of an LSH
// group carries the group's id as its single synthetic phrase — the whole
// group is mutually adjacent, which matches LSH's semantics (members are
// candidates because their shingle sets collide, not because of any one
// shared phrase).
func coarseLSH(words [][]string, workers int) (clusters [][]int, top [][]tfidf.PhraseID) {
	// 2-shingles with 2-row bands: a near-duplicate pair at Jaccard ~0.4
	// (a couple of slot tokens changed in a tweet-length doc) still
	// collides with probability ~1-(1-J²)^64 ≈ 1. The tf-idf default is
	// more selective; LSH here is the recall-leaning alternative.
	m := lsh.NewMinHasher(128, 2, 0x1f05)
	sigs := m.Signatures(words, workers)
	clusters = lsh.Bands(sigs, 64)
	top = make([][]tfidf.PhraseID, len(words))
	for gi, group := range clusters {
		key := tfidf.PhraseID(gi)
		for _, d := range group {
			top[d] = []tfidf.PhraseID{key}
		}
	}
	return clusters, top
}

// coarseStrict is the strictness ablation's coarse graph: documents join
// only when they share at least minShared top phrases. It counts shared
// phrases per document pair, so it is quadratic in the size of each
// phrase's posting list; posting lists longer than postingCap are
// truncated to keep the ablation tractable (the paper's default path
// never does this).
func coarseStrict(top [][]tfidf.PhraseID, numDocs, minShared int) [][]int {
	const postingCap = 256
	posting := make(map[tfidf.PhraseID][]int)
	for d, phrases := range top {
		for _, p := range phrases {
			if len(posting[p]) < postingCap {
				posting[p] = append(posting[p], d)
			}
		}
	}
	type pair struct{ a, b int }
	shared := make(map[pair]int)
	uf := graph.NewUnionFind(numDocs)
	for _, docs := range posting {
		for i := 0; i < len(docs); i++ {
			for j := i + 1; j < len(docs); j++ {
				pr := pair{docs[i], docs[j]}
				// Posting lists are appended in document order today, but
				// canonicalize anyway: an unordered pair must never split
				// into two map entries if construction ever reorders.
				if pr.a > pr.b {
					pr.a, pr.b = pr.b, pr.a
				}
				shared[pr]++
				if shared[pr] == minShared {
					uf.Union(pr.a, pr.b)
				}
			}
		}
	}
	return uf.Components(2)
}
