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
//     Selector: tf times idf, the idf floor, a prune of the phrases that
//     contain an earlier-ordered phrase and so can never be picked, a
//     sort of the rest, and the budgeted, position-diverse selection.
//
// Deduping twice costs a few percent of the run. Keeping every
// document's full phrases from Extract to Score would instead hold 24
// bytes per (document, phrase) pair, not 8, through the DF count, where a
// Detect call's live heap peaks.
//
// Output is deterministic and identical for any worker count.
package tfidf

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"time"

	"infoshield/internal/par"
	"infoshield/internal/tokenize"
)

// Default parameter values, from the paper.
const (
	DefaultMaxN        = 5
	DefaultTopFraction = 0.10
)

// DefaultRelativeFloor is this implementation's selection-quality guard,
// a constant rather than a setting: selection drops phrases whose idf
// falls below this fraction of the document's best phrase idf
// (equivalently, a document-frequency cap near N^0.6 when the document
// has unique phrases). "Top phrases" means phrases comparably rare to the
// document's rarest, not a quota filled with whatever ranks next: without
// the floor, high-entropy documents spend leftover budget on ubiquitous
// fillers (single CJK particles, common unigrams) whose hub-like document
// frequency wires unrelated documents into one giant component. The floor
// is on idf, not tf·idf, so a repeated common filler cannot buy its way
// back in — while a large legitimate near-duplicate cluster (df = cluster
// size, still sublinear in N) stays selectable.
const DefaultRelativeFloor = 0.4

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
	frac float64
	idf  []float64 // idf[d] = log(n/d) for 1 ≤ d ≤ n; idf[0] = 0

	phraseIdf []float64 // per phrase of the document being selected
	cand      []scored
	covered   []bool
	seen      []int32  // open-addressing table: uniq index+1 per slot, 0 empty
	uniq      []int    // the document's distinct word ids, first seen first
	keys      []uint64 // per entry of uniq, its word's first 8 bytes (lexKey)
	order     []int32  // indices into uniq in word order
	rank      []int32  // per position, the rank of its word in the document
	best      []int32  // prune's (position, length) table of candidate indices
}

// scored is one candidate phrase of one document during selection.
type scored struct {
	score  float64
	pos, n int32 // first occurrence
	i      int32 // index of the phrase in the document's phrase list
}

// Reset prepares s to select with e's budget fraction against a DF table over n documents. The idf of every possible document
// frequency is computed here, once, instead of once per phrase.
func (s *Selector) Reset(e *Extractor, n int) {
	s.frac = e.topFraction()
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
// Phrases below the idf floor are dropped, and so are phrases that can
// never be picked (prune); the rest are sorted in the selection order
// (order: score descending, then the phrases' token strings in
// lexicographic order, a total order over one document's phrases); and
// positional diversity admits a phrase only when no token of its first
// occurrence is already covered.
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
	floor := maxIdf * DefaultRelativeFloor
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
	cand = s.prune(cand, len(ids), rank)
	slices.SortFunc(cand, func(a, b scored) int { return order(rank, a, b) })
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

// order is the selection order of one document's candidates: score
// descending, then the phrases' token strings in lexicographic order
// (token-wise, shorter prefix first), compared through rank, the
// per-position word ranks from lexRanks. It is a total order over one
// document's phrases.
func order(rank []int32, a, b scored) int {
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
}

// prune drops every candidate that can never be picked: one whose first
// occurrence strictly contains the first occurrence of a candidate that
// comes before it in the selection order. When the diversity scan reaches
// such a container, the contained candidate was picked (covering one of
// the container's positions), or rejected for a covered position inside
// its span and so inside the container's, or the budget was spent first.
// Dropping it changes no pick, and on tweets it removes more than half of
// the candidates before the sort.
//
// One pass over a (position, length) table of a document of l tokens
// finds them: best[q·m+n−1] ends as the earliest candidate among the
// spans inside [q, q+n), which is the candidate at (q, n) itself or the
// earlier of best over [q, q+n−1) and best over [q+1, q+n). A candidate
// survives when it is its own span's best.
func (s *Selector) prune(cand []scored, l int, rank []int32) []scored {
	m := 0
	for _, c := range cand {
		m = max(m, int(c.n))
	}
	best := slices.Grow(s.best[:0], l*m)[:l*m]
	s.best = best
	for i := range best {
		best[i] = -1
	}
	for j, c := range cand {
		best[int(c.pos)*m+int(c.n)-1] = int32(j)
	}
	for n := 1; n < m; n++ {
		for q := 0; q+n < l; q++ {
			cell := q*m + n // the span [q, q+n+1)
			a, b := best[cell-1], best[cell+m-1]
			if a < 0 || b >= 0 && b != a && order(rank, cand[b], cand[a]) < 0 {
				a = b
			}
			if x := best[cell]; x < 0 || a >= 0 && order(rank, cand[a], cand[x]) < 0 {
				best[cell] = a
			}
		}
	}
	kept := cand[:0]
	for j, c := range cand {
		if best[int(c.pos)*m+int(c.n)-1] == int32(j) {
			kept = append(kept, c)
		}
	}
	return kept
}

// lexRanks returns, per position of ids, the rank of its word among the
// document's distinct words in lexicographic order, so comparing phrases
// rank by rank orders them as their joined string keys would. Only the
// selecting document's distinct words are sorted by string, never its
// every position or the whole vocabulary, so the cost does not grow with
// a stream's vocabulary. This reproduces the joined-string-key order for
// every token ordinary tokenization can emit (tokens containing raw
// control bytes below U+001F, the key separator, could in principle order
// differently; such bytes never survive tokenization of text).
func (s *Selector) lexRanks(ids []int, vocab *tokenize.Vocab) []int32 {
	// Number the distinct ids in first-seen order through a small
	// open-addressing table; rank holds each position's number until it
	// is replaced by the word's rank.
	size := 16
	for size < 2*len(ids) {
		size *= 2
	}
	seen := slices.Grow(s.seen[:0], size)[:size]
	clear(seen)
	mask := uint64(size - 1)
	uniq := s.uniq[:0]
	rank := slices.Grow(s.rank[:0], len(ids))[:len(ids)]
	for p, id := range ids {
		i := mix64(uint64(id)) & mask
		for seen[i] != 0 && uniq[seen[i]-1] != id {
			i = (i + 1) & mask
		}
		if seen[i] == 0 {
			uniq = append(uniq, id)
			seen[i] = int32(len(uniq))
		}
		rank[p] = seen[i] - 1
	}
	keys, order := s.keys[:0], s.order[:0]
	for j, id := range uniq {
		keys = append(keys, lexKey(vocab.Word(id)))
		order = append(order, int32(j))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return strings.Compare(vocab.Word(uniq[a]), vocab.Word(uniq[b]))
	})
	// The table is done with; its prefix takes each entry of uniq's rank.
	uniqRank := seen[:len(uniq)]
	for r, j := range order {
		uniqRank[j] = int32(r)
	}
	for p, j := range rank {
		rank[p] = uniqRank[j]
	}
	s.seen, s.uniq, s.keys, s.order, s.rank = seen, uniq, keys, order, rank
	return rank
}

// lexKey packs w's first 8 bytes big-endian, zero-padded. Keys order as
// their words do wherever they differ, so only words sharing an 8-byte
// prefix (or differing in it only by trailing NULs) need the string
// compare.
func lexKey(w string) uint64 {
	var b [8]byte
	copy(b[:], w)
	return binary.BigEndian.Uint64(b[:])
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
