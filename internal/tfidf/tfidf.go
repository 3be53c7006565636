// Package tfidf implements the phrase-scoring half of InfoShield-Coarse:
// n-gram (1..MaxN) tf-idf over a tokenized corpus and extraction of each
// document's top-scoring phrases. The paper keeps phrases up to 5-grams
// and the top ~10% of each document's phrases, making the count a function
// of document size so results are not dominated by document length.
//
// The batch extractor (TopPhraseIDs) and the streaming incremental miner
// run on one substrate (see phrase.go): the per-document dedupe
// (Phrases), one hash-keyed DF table (HashTable) and one selection rule
// (Selector). Phrases are keyed by rolling 64-bit hashes over token ids,
// never by joined strings. TopPhraseIDs runs three passes:
//
//   - Extract: each worker dedupes a contiguous document range's n-grams
//     through one reusable open-addressing table and keeps only a flat
//     array of the phrase hashes.
//   - Count: every range's hashes are counted, serially and in document
//     order, into one DF table.
//   - Score: per range in parallel, each document is deduped again and
//     its phrases (hash, tf, first position, length) go through the
//     Selector: tf times idf, a typed sort, and the budgeted,
//     position-diverse selection.
//
// Deduping twice costs a few percent of the run. Keeping every
// document's full phrases from Extract to Score would instead hold 24
// bytes per (document, phrase) pair, not 8, through the DF count, where a
// Detect call's live heap peaks.
//
// Output is deterministic and identical for any worker count.
package tfidf

import (
	"math"
	"slices"
	"strings"
	"time"

	"infoshield/internal/par"
	"infoshield/internal/tokenize"
)

// Default parameter values. MaxN and TopFraction come from the paper;
// RelativeFloor is this implementation's selection-quality guard (see the
// Extractor field docs).
const (
	DefaultMaxN          = 5
	DefaultTopFraction   = 0.10
	DefaultRelativeFloor = 0.4
)

// sep joins n-gram tokens into a single phrase-key string. US (unit
// separator) cannot appear in tokens, which never contain control
// characters after tokenization of ordinary text; even if it did, a
// collision only merges two phrases, never corrupts state.
const sep = "\x1f"

// Key converts an n-gram token slice into its canonical phrase key.
func Key(tokens []string) string { return strings.Join(tokens, sep) }

// Extractor computes per-document top phrases by tf-idf.
// The zero value uses the paper's defaults.
type Extractor struct {
	// MaxN is the longest n-gram considered (paper: 5).
	MaxN int
	// TopFraction is the fraction of a document's distinct phrases kept
	// (paper: top 10%). At least one phrase is always kept for non-empty
	// documents.
	TopFraction float64
	// RelativeFloor drops phrases whose idf falls below this fraction of
	// the document's best phrase idf (default 0.4 — equivalently, a
	// document-frequency cap near N^0.6 when the document has unique
	// phrases). "Top phrases" means phrases comparably rare to the
	// document's rarest, not a quota filled with whatever ranks next:
	// without the floor, high-entropy documents spend leftover budget on
	// ubiquitous fillers (single CJK particles, common unigrams) whose
	// hub-like document frequency wires unrelated documents into one
	// giant component. The floor is on idf, not tf·idf, so a repeated
	// common filler cannot buy its way back in — while a large legitimate
	// near-duplicate cluster (df = cluster size, still sublinear in N)
	// stays selectable.
	RelativeFloor float64
	// Workers bounds the extraction worker pool (<= 0: GOMAXPROCS). Any
	// value produces identical output.
	Workers int
}

// MaxNgram returns the longest n-gram considered, resolving the default.
func (e *Extractor) MaxNgram() int {
	if e.MaxN <= 0 {
		return DefaultMaxN
	}
	return e.MaxN
}

func (e *Extractor) topFraction() float64 {
	if e.TopFraction <= 0 {
		return DefaultTopFraction
	}
	return e.TopFraction
}

func (e *Extractor) relativeFloor() float64 {
	if e.RelativeFloor <= 0 {
		return DefaultRelativeFloor
	}
	return e.RelativeFloor
}

// Selection is the output of TopPhraseIDs: each document's selected
// phrases and per-stage wall times.
type Selection struct {
	// Top[i] holds document i's selected phrases, best first.
	Top [][]PhraseID
	// Extract and Score time the two halves (phrase hashes + DF
	// counting, then per-document phrases, scoring and selection).
	Extract, Score time.Duration
}

// Selector is the phrase-selection rule of both Coarse paths: it scores
// a document's distinct phrases by tf·idf against a DF table over a
// corpus of n documents and keeps the document's top ones. A Selector
// holds reusable scratch, so one serves one goroutine; the zero value
// must be Reset before use.
type Selector struct {
	frac, floor float64
	idf         []float64 // idf[d] = log(n/d) for 1 ≤ d ≤ n; idf[0] = 0

	phraseIdf []float64 // per phrase of the document being selected
	cand      []scored
	covered   []bool
	order     []int32 // the document's positions in word order
	rank      []int32 // per position, the rank of its word in the document
}

// scored is one candidate phrase of one document during selection.
type scored struct {
	score  float64
	pos, n int32 // first occurrence
	i      int32 // index of the phrase in the document's phrase list
}

// Reset prepares s to select with e's budget fraction and idf floor
// against a DF table over n documents. The idf of every possible document
// frequency is computed here, once, instead of once per phrase.
func (s *Selector) Reset(e *Extractor, n int) {
	s.frac, s.floor = e.topFraction(), e.relativeFloor()
	s.idf = slices.Grow(s.idf[:0], n+1)[:n+1]
	s.idf[0] = 0
	for d := 1; d <= n; d++ {
		s.idf[d] = math.Log(float64(n) / float64(d))
	}
}

// budget is the number of phrases a document of distinct phrases keeps: a
// fraction of its distinct phrase count (a function of document size, per
// the paper), at least one.
func (s *Selector) budget(distinct int) int {
	return max(1, int(math.Ceil(s.frac*float64(distinct))))
}

// Select appends one document's top phrases to dst, best first, and
// returns dst. ps are the document's distinct phrases (Phrases.Doc), ids
// its tokens, vocab the vocabulary that spells them, and df counts, per
// phrase hash, the corpus documents containing the phrase.
//
// Two details make the bipartite phrase graph behave the way the paper
// describes:
//
//   - df = 1 phrases stay eligible even though they can never contribute
//     an edge. They are the budget sink that keeps diverse documents
//     isolated: a genuine tweet full of rare words spends its whole top-k
//     on its own unique n-grams, so medium-frequency phrases ("i love",
//     "the coffee") are never selected and never wire unrelated documents
//     together. Near-duplicates, by contrast, share long constant chunks
//     whose phrases have df = cluster size — rare corpus-wide, so they
//     win the budget on every member and become edges.
//   - zero-score phrases (df = n) are excluded: selecting ubiquitous
//     phrases as a last resort would connect the whole corpus.
//
// Phrases below the idf floor are dropped before the sort; the sort is by
// score descending, then by the phrases' token strings in lexicographic
// order (token-wise, shorter prefix first), a total order over one
// document's phrases; and positional diversity admits a phrase only when
// no token of its first occurrence is already covered.
func (s *Selector) Select(dst []PhraseID, ps []Phrase, ids []int, vocab *tokenize.Vocab, df *HashTable) []PhraseID {
	idf := slices.Grow(s.phraseIdf[:0], len(ps))[:len(ps)]
	s.phraseIdf = idf
	maxIdf := 0.0
	for i := range ps {
		// A count over n comes only from hash collisions inside one
		// document; such a phrase is treated as ubiquitous.
		idf[i] = 0
		if d := int(df.Get(ps[i].Hash)); d < len(s.idf) {
			idf[i] = s.idf[d]
		}
		maxIdf = max(maxIdf, idf[i])
	}
	floor := maxIdf * s.floor
	cand := s.cand[:0]
	for i := range ps {
		if p := &ps[i]; idf[i] > 0 && idf[i] >= floor {
			cand = append(cand, scored{float64(p.TF) * idf[i], p.Pos, p.N, int32(i)})
		}
	}
	s.cand = cand
	if len(cand) == 0 {
		return dst
	}
	rank := s.lexRanks(ids, vocab)
	slices.SortFunc(cand, func(a, b scored) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		for i := int32(0); i < a.n && i < b.n; i++ {
			if ra, rb := rank[a.pos+i], rank[b.pos+i]; ra != rb {
				return int(ra - rb)
			}
		}
		return int(a.n - b.n)
	})
	// Positional diversity: without it, the O(MaxN²) overlapping n-grams
	// around a single rare token exhaust the budget and the document
	// never exposes the phrases it shares with its near-duplicates.
	covered := slices.Grow(s.covered[:0], len(ids))[:len(ids)]
	clear(covered)
	s.covered = covered
	k, start := s.budget(len(ps)), len(dst)
	for _, c := range cand {
		if len(dst)-start >= k {
			break
		}
		span := covered[c.pos : c.pos+c.n]
		if slices.Contains(span, true) {
			continue
		}
		for p := range span {
			span[p] = true
		}
		dst = append(dst, ps[c.i].Hash)
	}
	return dst
}

// lexRanks returns, per position of ids, the rank of its word among the
// document's distinct words in lexicographic order, so comparing phrases
// rank by rank orders them as their joined string keys would. Only the
// selecting document's words are ranked, never the whole vocabulary, so
// the cost does not grow with a stream's vocabulary. This reproduces the
// joined-string-key order for every token ordinary tokenization can emit
// (tokens containing raw control bytes below U+001F, the key separator,
// could in principle order differently; such bytes never survive
// tokenization of text).
func (s *Selector) lexRanks(ids []int, vocab *tokenize.Vocab) []int32 {
	order := s.order[:0]
	for i := range ids {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if ids[a] == ids[b] {
			return 0
		}
		return strings.Compare(vocab.Word(ids[a]), vocab.Word(ids[b]))
	})
	rank := slices.Grow(s.rank[:0], len(ids))[:len(ids)]
	r := int32(0)
	for k, p := range order {
		if k > 0 && ids[p] != ids[order[k-1]] {
			r++
		}
		rank[p] = r
	}
	s.order, s.rank = order, rank
	return rank
}

// countDF runs the extract and count passes: each worker dedupes a
// contiguous range of documents, keeping only the phrase hashes and each
// document's distinct-phrase count, and the hashes are then counted,
// serially and in document order, into one DF table (each distinct
// (document, phrase) pair adds one to its hash's count). It returns the
// table and the per-document distinct counts.
func countDF(docs [][]int, workers, maxN int) (*HashTable, []int32) {
	distinct := make([]int32, len(docs))
	hashes := make([][]uint64, min(workers, len(docs)))
	par.IndexedRanges(len(docs), workers, func(w, lo, hi int) {
		occ := 0
		for _, ids := range docs[lo:hi] {
			occ += occurrences(len(ids), maxN)
		}
		hs := make([]uint64, 0, occ)
		var ph Phrases
		for i := lo; i < hi; i++ {
			ph.Extract(docs[i:i+1], maxN)
			for _, p := range ph.Doc(0) {
				hs = append(hs, p.Hash)
			}
			distinct[i] = int32(len(ph.Doc(0)))
		}
		hashes[w] = hs
	})
	df := &HashTable{}
	for _, hs := range hashes {
		for _, h := range hs {
			df.Inc(h)
		}
	}
	return df, distinct
}

// TopPhraseIDs returns, for each tokenized document, its highest-tf-idf
// phrases under the Selector rule. Ties break lexicographically so output
// is deterministic, and the result is identical for any Workers setting.
func (e *Extractor) TopPhraseIDs(docs [][]int, vocab *tokenize.Vocab) *Selection {
	n := len(docs)
	sel := &Selection{Top: make([][]PhraseID, n)}
	if n == 0 {
		return sel
	}
	workers := par.Workers(e.Workers)

	start := time.Now()
	df, distinct := countDF(docs, workers, e.MaxNgram())
	sel.Extract = time.Since(start)

	start = time.Now()
	par.Ranges(n, workers, func(lo, hi int) {
		e.selectRange(sel.Top, docs, vocab, df, distinct, lo, hi)
	})
	sel.Score = time.Since(start)
	return sel
}

// selectRange fills the Top rows of documents lo..hi-1, which share one
// backing array sized by the budgets, deduping each document again.
func (e *Extractor) selectRange(top [][]PhraseID, docs [][]int, vocab *tokenize.Vocab, df *HashTable, distinct []int32, lo, hi int) {
	var s Selector
	s.Reset(e, len(docs))
	room := 0
	for _, d := range distinct[lo:hi] {
		if d > 0 {
			room += s.budget(int(d))
		}
	}
	picked := make([]PhraseID, 0, room)
	var ph Phrases
	for i := lo; i < hi; i++ {
		ph.Extract(docs[i:i+1], e.MaxNgram())
		row := len(picked)
		picked = s.Select(picked, ph.Doc(0), docs[i], vocab, df)
		if len(picked) > row {
			top[i] = picked[row:len(picked):len(picked)]
		}
	}
}

// TopPhrases is the string-keyed compatibility form of TopPhraseIDs: it
// interns the documents through a private vocabulary, runs the hashed
// extraction, and spells each selected phrase from the tokens of the
// document that selected it.
func (e *Extractor) TopPhrases(docs [][]string) [][]string {
	vocab := tokenize.NewVocab()
	ids := make([][]int, len(docs))
	for i, d := range docs {
		ids[i] = vocab.Encode(d)
	}
	sel := e.TopPhraseIDs(ids, vocab)
	var ph Phrases
	out := make([][]string, len(docs))
	for i, top := range sel.Top {
		if len(top) == 0 {
			continue
		}
		ph.Extract(ids[i:i+1], e.MaxNgram())
		ps := ph.Doc(0)
		row := make([]string, len(top))
		for j, id := range top {
			p := ps[slices.IndexFunc(ps, func(p Phrase) bool { return p.Hash == id })]
			row[j] = Key(docs[i][p.Pos : p.Pos+p.N])
		}
		out[i] = row
	}
	return out
}
