// Package tfidf implements the phrase-scoring half of InfoShield-Coarse:
// n-gram (1..MaxN) tf-idf over a tokenized corpus and extraction of each
// document's top-scoring phrases. The paper keeps phrases up to 5-grams
// and the top ~10% of each document's phrases, making the count a function
// of document size so results are not dominated by document length.
//
// The extractor runs on flat, reusable tables rather than Go maps (see
// phrase.go). Phrases are keyed by rolling 64-bit hashes over token ids,
// never by joined strings. Three passes, each over contiguous document
// ranges or key-range shards:
//
//   - Extract: each worker dedupes its documents' n-grams through one
//     reusable open-addressing table into a flat entry array (hash, tf,
//     first position, length), and groups the entry indices by DF shard.
//   - Count: the 16 DF shards are counted in parallel, each from every
//     range's entries for it in document order, into a dense table over
//     flat cells. Each entry records its cell, so scoring never hashes.
//   - Score: per document, tf times the cell's idf, a typed sort, and the
//     budgeted, position-diverse selection.
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

func (e *Extractor) maxN() int {
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
// phrases plus the corpus-wide phrase table and per-stage wall times.
type Selection struct {
	// Top[i] holds document i's selected phrases, best first.
	Top [][]PhraseID
	// Extract and Score time the two halves (phrase entries + DF
	// counting, then scoring + selection).
	Extract, Score time.Duration

	docs   [][]int
	shards [dfShards]dfTable
}

// PhraseTokens returns the token-id sequence of a phrase selected by this
// extraction, or nil for an unknown id.
func (s *Selection) PhraseTokens(id PhraseID) []int {
	t := &s.shards[shardOf(id.Hash)]
	c := t.find(id)
	if c < 0 {
		return nil
	}
	cl := &t.cells[c]
	return s.docs[cl.doc][cl.pos : cl.pos+cl.n]
}

// DF returns the document frequency of a phrase, or 0 for an unknown id.
func (s *Selection) DF(id PhraseID) int {
	t := &s.shards[shardOf(id.Hash)]
	c := t.find(id)
	if c < 0 {
		return 0
	}
	return int(t.cells[c].df)
}

// phraseRange is one worker's contiguous document range [lo, hi) after
// the extract pass.
type phraseRange struct {
	lo, hi int
	// ents holds the range's distinct (document, phrase) pairs, document
	// by document; document lo+j owns ents[bounds[j]:bounds[j+1]].
	ents   []phraseEntry
	bounds []int32
	// byShard lists entry indices grouped by DF shard, ascending within a
	// group; shard s's group is byShard[shardOff[s]:shardOff[s+1]].
	byShard  []int32
	shardOff [dfShards + 1]int32
}

// extract fills the range from docs[lo:hi] through one reused table.
func (r *phraseRange) extract(docs [][]int, lo, hi, maxN int) {
	var tab docTable
	r.lo, r.hi = lo, hi
	occ := 0
	for _, ids := range docs[lo:hi] {
		occ += occurrences(len(ids), maxN)
	}
	r.ents = make([]phraseEntry, 0, occ)
	r.bounds = make([]int32, hi-lo+1)
	for i := lo; i < hi; i++ {
		r.ents = tab.addDoc(r.ents, docs[i], maxN)
		r.bounds[i-lo+1] = int32(len(r.ents))
	}
	r.groupByShard()
}

// groupByShard counting-sorts the entry indices by DF shard. The sort is
// stable, so each shard's group stays in document order.
func (r *phraseRange) groupByShard() {
	var next [dfShards + 1]int32
	for _, e := range r.ents {
		next[shardOf(e.hash)+1]++
	}
	for s := 1; s <= dfShards; s++ {
		next[s] += next[s-1]
	}
	r.shardOff = next
	r.byShard = make([]int32, len(r.ents))
	for j, e := range r.ents {
		s := shardOf(e.hash)
		r.byShard[next[s]] = int32(j)
		next[s]++
	}
}

// countShard builds DF shard s from every range's entries for it and
// points each entry at its cell. Ranges are contiguous and visited in
// order, and each range's group is in document order, so cells meet the
// (document, phrase) pairs in global document order whatever the worker
// count: a collision chain lists a hash's phrases by first occurrence.
func countShard(docs [][]int, ranges []phraseRange, s int) dfTable {
	size := 0
	for i := range ranges {
		size += int(ranges[i].shardOff[s+1] - ranges[i].shardOff[s])
	}
	t := newDFTable(size)
	for i := range ranges {
		r := &ranges[i]
		doc := 0
		for _, j := range r.byShard[r.shardOff[s]:r.shardOff[s+1]] {
			for r.bounds[doc+1] <= j {
				doc++
			}
			e := &r.ents[j]
			e.cell = t.add(docs, e.hash, int32(r.lo+doc), e.pos, e.n)
		}
	}
	for c := range t.cells {
		t.cells[c].idf = math.Log(float64(len(docs)) / float64(t.cells[c].df))
	}
	return t
}

// scored is one candidate phrase of one document during selection.
type scored struct {
	score float64
	first int32 // lexicographic rank of the phrase's first token
	pos   int32 // start of the first occurrence
	n     int32 // length in tokens
	ent   int32 // index of the phrase's entry within the document
}

// lexCmp orders two phrases of one document by the lexicographic order
// of their token strings (token-wise, shorter prefix first), using the
// precomputed per-id ranks. This reproduces the joined-string-key order
// of the old extractor for every token ordinary tokenization can emit
// (tokens containing raw control bytes below U+001F could in principle
// order differently; such bytes never survive tokenization of text).
func lexCmp(ids []int, rank []int32, a, b *scored) int {
	if a.first != b.first {
		return int(a.first - b.first)
	}
	for i := int32(1); i < a.n && i < b.n; i++ {
		ra := rank[ids[a.pos+i]]
		rb := rank[ids[b.pos+i]]
		if ra != rb {
			return int(ra - rb)
		}
	}
	return int(a.n - b.n)
}

// lexRank returns each token id's rank in the lexicographic order of the
// vocabulary's words, for allocation-free phrase comparisons.
func lexRank(v *tokenize.Vocab) []int32 {
	ids := make([]int, v.Size())
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int { return strings.Compare(v.Word(a), v.Word(b)) })
	rank := make([]int32, len(ids))
	for r, id := range ids {
		rank[id] = int32(r)
	}
	return rank
}

// TopPhraseIDs returns, for each tokenized document, its highest-tf-idf
// phrases. Ties break lexicographically so output is deterministic, and
// the result is identical for any Workers setting.
//
// Selection dynamics matter more than any single score here, and two
// details make the bipartite graph behave the way the paper describes:
//
//   - df = 1 phrases stay eligible even though they can never contribute
//     an edge. They are the budget sink that keeps diverse documents
//     isolated: a genuine tweet full of rare words spends its whole top-k
//     on its own unique n-grams, so medium-frequency phrases ("i love",
//     "the coffee") are never selected and never wire unrelated documents
//     together. Near-duplicates, by contrast, share long constant chunks
//     whose phrases have df = cluster size — rare corpus-wide, so they
//     win the budget on every member and become edges.
//   - zero-score phrases (df = N) are excluded: selecting ubiquitous
//     phrases as a last resort would connect the whole corpus.
func (e *Extractor) TopPhraseIDs(docs [][]int, vocab *tokenize.Vocab) *Selection {
	n := len(docs)
	sel := &Selection{Top: make([][]PhraseID, n), docs: docs}
	if n == 0 {
		return sel
	}
	workers := par.Workers(e.Workers)

	// Extract each range's phrase entries, then count the DF shards. Each
	// worker owns its range or shard outright; no state is shared.
	start := time.Now()
	maxN := e.maxN()
	ranges := make([]phraseRange, min(workers, n))
	par.IndexedRanges(n, workers, func(w, lo, hi int) {
		ranges[w].extract(docs, lo, hi, maxN)
	})
	par.Each(dfShards, workers, func(s int) {
		sel.shards[s] = countShard(docs, ranges, s)
	})
	sel.Extract = time.Since(start)

	// Score and select, embarrassingly parallel per range.
	start = time.Now()
	rank := lexRank(vocab)
	frac, floorFrac := e.topFraction(), e.relativeFloor()
	par.Each(len(ranges), workers, func(w int) {
		sel.selectRange(&ranges[w], rank, frac, floorFrac)
	})
	sel.Score = time.Since(start)
	return sel
}

// cell returns the DF cell an entry points at.
func (s *Selection) cell(e *phraseEntry) *dfCell {
	return &s.shards[shardOf(e.hash)].cells[e.cell]
}

// selectRange scores the phrases of one range's documents and fills
// their Top rows, which share one backing array sized by the budgets.
func (s *Selection) selectRange(r *phraseRange, rank []int32, frac, floorFrac float64) {
	// The budget is a fraction of the document's distinct phrase count (a
	// function of document size, per the paper).
	budget := func(distinct int) int {
		return max(1, int(math.Ceil(frac*float64(distinct))))
	}
	room := 0
	for j := range r.hi - r.lo {
		if d := int(r.bounds[j+1] - r.bounds[j]); d > 0 {
			room += budget(d)
		}
	}
	picked := make([]PhraseID, 0, room)
	var cand []scored
	var covered []bool
	for j := range r.hi - r.lo {
		ents := r.ents[r.bounds[j]:r.bounds[j+1]]
		ids := s.docs[r.lo+j]
		maxIdf := 0.0
		for i := range ents {
			maxIdf = max(maxIdf, s.cell(&ents[i]).idf)
		}
		// Phrases below the floor are never selected, so they are left
		// out before sorting; the survivors keep their relative order.
		floor := maxIdf * floorFrac
		cand = cand[:0]
		for i := range ents {
			e := &ents[i]
			idf := s.cell(e).idf
			score := float64(e.tf) * idf
			if score <= 0 || idf < floor {
				continue
			}
			cand = append(cand, scored{score, rank[ids[e.pos]], e.pos, e.n, int32(i)})
		}
		if len(cand) == 0 {
			continue
		}
		slices.SortFunc(cand, func(a, b scored) int {
			if a.score != b.score {
				if a.score > b.score {
					return -1
				}
				return 1
			}
			return lexCmp(ids, rank, &a, &b)
		})
		k := budget(len(ents))
		// Positional diversity: a phrase is only selected if every token
		// of its first occurrence is still uncovered. Without this, the
		// O(MaxN²) overlapping n-grams around a single rare token exhaust
		// the budget and the document never exposes the phrases it shares
		// with its near-duplicates.
		if cap(covered) >= len(ids) {
			covered = covered[:len(ids)]
			clear(covered)
		} else {
			covered = make([]bool, len(ids))
		}
		row := len(picked)
		for _, c := range cand {
			if len(picked)-row >= k {
				break
			}
			span := covered[c.pos : c.pos+c.n]
			if slices.Contains(span, true) {
				continue
			}
			for p := range span {
				span[p] = true
			}
			e := &ents[c.ent]
			picked = append(picked, PhraseID{e.hash, s.cell(e).alt})
		}
		if len(picked) > row {
			s.Top[r.lo+j] = picked[row:len(picked):len(picked)]
		}
	}
}

// TopPhrases is the string-keyed compatibility form of TopPhraseIDs: it
// interns the documents through a private vocabulary, runs the hashed
// extraction, and materializes each selected phrase's string key exactly
// once per distinct phrase (never per occurrence).
func (e *Extractor) TopPhrases(docs [][]string) [][]string {
	vocab := tokenize.NewVocab()
	ids := make([][]int, len(docs))
	for i, d := range docs {
		ids[i] = vocab.Encode(d)
	}
	sel := e.TopPhraseIDs(ids, vocab)
	interned := make(map[PhraseID]string)
	out := make([][]string, len(docs))
	for i, ps := range sel.Top {
		if len(ps) == 0 {
			continue
		}
		row := make([]string, len(ps))
		for j, p := range ps {
			s, ok := interned[p]
			if !ok {
				s = Key(vocab.Decode(sel.PhraseTokens(p)))
				interned[p] = s
			}
			row[j] = s
		}
		out[i] = row
	}
	return out
}

// Score computes the tf-idf of one phrase given its term frequency,
// document frequency, and corpus size — exposed for tests and tooling.
func Score(tf, df, numDocs int) float64 {
	if df <= 0 || numDocs <= 0 {
		return 0
	}
	return float64(tf) * math.Log(float64(numDocs)/float64(df))
}
