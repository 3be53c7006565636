package core

import (
	"time"

	"infoshield/internal/graph"
	"infoshield/internal/lsh"
	"infoshield/internal/par"
	"infoshield/internal/tfidf"
	"infoshield/internal/tokenize"
)

// CoarseTimings breaks the coarse pass into its pipeline stages so the
// effect of the worker pool is measurable per stage. Tokenize covers
// word-splitting plus vocabulary encoding (filled in by Run; RunTokens,
// given words already split, times only the encode; the Coarse
// convenience wrapper leaves it zero). Under UseLSHCoarse, Components
// covers signatures plus banding and the tf-idf stages stay zero.
type CoarseTimings struct {
	Tokenize   time.Duration // word split + vocab encode
	Extract    time.Duration // phrase sets + DF counting
	Score      time.Duration // tf-idf scoring and top-phrase selection
	Components time.Duration // phrase graph + connected components (or LSH)
}

// Coarse runs InfoShield-Coarse (Algorithm 1): tf-idf top-phrase
// extraction, the document–phrase bipartite graph, and connected
// components. It returns the candidate clusters (components with at least
// two documents) as slices of document indices, each sorted ascending,
// ordered by smallest member — plus each document's selected top phrases,
// which Fine reuses as its candidate-neighbor index.
//
// Coarse is the self-contained form (it interns the words itself); Run
// calls coarseEncoded with the corpus vocabulary it already built.
func Coarse(words [][]string, opt Options) (clusters [][]int, top [][]tfidf.PhraseID) {
	vocab := tokenize.NewVocab()
	tokens := make([][]int, len(words))
	for i, w := range words {
		tokens[i] = vocab.Encode(w)
	}
	clusters, top, _ = coarseEncoded(words, tokens, vocab, opt)
	return clusters, top
}

// coarseEncoded is Coarse over a pre-encoded corpus. words back the LSH
// variant; tokens and vocab back the tf-idf variant.
func coarseEncoded(words [][]string, tokens [][]int, vocab *tokenize.Vocab, opt Options) (clusters [][]int, top [][]tfidf.PhraseID, t CoarseTimings) {
	if opt.UseLSHCoarse {
		return coarseLSH(words, opt)
	}
	ex := &tfidf.Extractor{MaxN: opt.MaxNgram, TopFraction: opt.TopFraction, Workers: opt.Workers}
	sel := ex.TopPhraseIDs(tokens, vocab)
	top = sel.Top
	t.Extract, t.Score = sel.Extract, sel.Score
	start := time.Now()
	if opt.MinSharedPhrases > 1 {
		clusters = coarseStrict(top, len(words), opt.MinSharedPhrases)
		t.Components = time.Since(start)
		return clusters, top, t
	}
	clusters = tfidf.Components(top, 2, new(tfidf.HashTable))
	t.Components = time.Since(start)
	return clusters, top, t
}

// coarseLSH is the alternative coarse pass: MinHash signatures over token
// 3-shingles with LSH banding, instead of the tf-idf phrase graph. Fine's
// neighbor index needs per-document "phrases", so every member of an LSH
// group carries the group's id as its single synthetic phrase — the whole
// group is mutually adjacent, which matches LSH's semantics (members are
// candidates because their shingle sets collide, not because of any one
// shared phrase).
func coarseLSH(words [][]string, opt Options) (clusters [][]int, top [][]tfidf.PhraseID, t CoarseTimings) {
	start := time.Now()
	// 2-shingles with 2-row bands: a near-duplicate pair at Jaccard ~0.4
	// (a couple of slot tokens changed in a tweet-length doc) still
	// collides with probability ~1-(1-J²)^64 ≈ 1. The tf-idf default is
	// more selective; LSH here is the recall-leaning alternative.
	m := lsh.NewMinHasher(128, 2, 0x1f05)
	sigs := m.Signatures(words, par.Workers(opt.Workers))
	clusters = lsh.Bands(sigs, 64)
	top = make([][]tfidf.PhraseID, len(words))
	for gi, group := range clusters {
		key := tfidf.PhraseID(gi)
		for _, d := range group {
			top[d] = []tfidf.PhraseID{key}
		}
	}
	t.Components = time.Since(start)
	return clusters, top, t
}

// coarseStrict is the ablation variant: documents join only when they
// share at least minShared top phrases. It counts shared phrases per
// document pair, so it is quadratic in the size of each phrase's posting
// list; posting lists longer than postingCap are truncated to keep the
// ablation tractable (the paper's default path never does this).
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
