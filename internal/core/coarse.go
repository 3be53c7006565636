package core

import (
	"time"

	"infoshield/internal/tfidf"
	"infoshield/internal/tokenize"
)

// CoarseTimings breaks the coarse pass into its pipeline stages so the
// effect of the worker pool is measurable per stage. Tokenize covers
// word-splitting plus vocabulary encoding (filled in by Run; the Coarse
// convenience wrapper leaves it zero).
type CoarseTimings struct {
	Tokenize   time.Duration // word split + vocab encode
	Extract    time.Duration // phrase sets + DF counting
	Score      time.Duration // tf-idf scoring and top-phrase selection
	Components time.Duration // phrase graph + connected components
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
	clusters, top, _ = coarseEncoded(tokens, vocab, opt)
	return clusters, top
}

// coarseEncoded is Coarse over a pre-encoded corpus.
func coarseEncoded(tokens [][]int, vocab *tokenize.Vocab, opt Options) (clusters [][]int, top [][]tfidf.PhraseID, t CoarseTimings) {
	ex := &tfidf.Extractor{MaxN: opt.MaxNgram, TopFraction: opt.TopFraction, Workers: opt.Workers}
	sel := ex.TopPhraseIDs(tokens, vocab, new(tfidf.HashTable), len(tokens))
	top = sel.Top
	t.Extract, t.Score = sel.Extract, sel.Score
	start := time.Now()
	clusters = tfidf.Components(top, 2, new(tfidf.HashTable))
	t.Components = time.Since(start)
	return clusters, top, t
}
