package tfidf

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"infoshield/internal/datagen"
	"infoshield/internal/par"
	"infoshield/internal/tokenize"
)

// KeyTokens splits a phrase key back into tokens.
func KeyTokens(key string) []string { return strings.Split(key, sep) }

func tok(s string) []string { return strings.Fields(s) }

func TestKeyRoundTrip(t *testing.T) {
	toks := []string{"cheap", "viagra", "now"}
	if got := KeyTokens(Key(toks)); !reflect.DeepEqual(got, toks) {
		t.Errorf("round trip = %v", got)
	}
}

// hashIDs hashes a whole token-id sequence: the non-rolling reference.
func hashIDs(ids []int) uint64 {
	var h uint64
	for _, id := range ids {
		h = extendHash(h, id)
	}
	return mix64(h)
}

// hashOf returns the phrase hash of a word sequence under v's ids.
func hashOf(v *tokenize.Vocab, words ...string) uint64 {
	ids := make([]int, len(words))
	for i, w := range words {
		id, ok := v.ID(w)
		if !ok {
			panic("unknown word " + w)
		}
		ids[i] = id
	}
	return hashIDs(ids)
}

func TestPhraseSetCounts(t *testing.T) {
	v := tokenize.NewVocab()
	ids := v.Encode(tok("a b a b"))
	var tab docTable
	ents := tab.addDoc(nil, ids, 2)
	// unigrams: a(2) b(2); bigrams: "a b"(2) "b a"(1), in order of first
	// occurrence (start position, then length).
	want := []Phrase{
		{Hash: hashOf(v, "a"), TF: 2, Pos: 0, N: 1},
		{Hash: hashOf(v, "a", "b"), TF: 2, Pos: 0, N: 2},
		{Hash: hashOf(v, "b"), TF: 2, Pos: 1, N: 1},
		{Hash: hashOf(v, "b", "a"), TF: 1, Pos: 1, N: 2},
	}
	if !reflect.DeepEqual(ents, want) {
		t.Errorf("entries = %+v\nwant %+v", ents, want)
	}
	// The table is reused: a second document starts from an empty table
	// and appends after the first document's entries.
	ents = tab.addDoc(ents, v.Encode(tok("b")), 2)
	if got := ents[4:]; len(got) != 1 || got[0].Hash != hashOf(v, "b") || got[0].TF != 1 {
		t.Errorf("second document entries = %+v", got)
	}
}

func TestPhraseSetShortDoc(t *testing.T) {
	v := tokenize.NewVocab()
	var tab docTable
	ents := tab.addDoc(nil, v.Encode(tok("only two")), 5)
	// 2 unigrams + 1 bigram; no 3..5-grams possible.
	if len(ents) != 3 {
		t.Errorf("distinct phrases = %d, want 3", len(ents))
	}
	if got := occurrences(2, 5); got != 3 {
		t.Errorf("occurrences(2, 5) = %d, want 3", got)
	}
	if got := occurrences(10, 5); got != 10+9+8+7+6 {
		t.Errorf("occurrences(10, 5) = %d, want 40", got)
	}
}

// TestRollingHashMatchesReference pins the rolling computation to the
// whole-sequence reference on random id windows.
func TestRollingHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := make([]int, 40)
	for i := range ids {
		ids[i] = rng.Intn(1000)
	}
	for i := 0; i < len(ids); i++ {
		var h uint64
		for n := 1; n <= 5 && i+n <= len(ids); n++ {
			h = extendHash(h, ids[i+n-1])
			if got, want := mix64(h), hashIDs(ids[i:i+n]); got != want {
				t.Fatalf("rolling hash at (%d,%d) = %x, want %x", i, n, got, want)
			}
		}
	}
}

// TestDocTableSeparatesForcedCollisions: within one document the dedupe
// table settles equal keys by comparing tokens, so different n-grams
// counted under one forged key stay separate phrases with their own term
// frequencies (genuine 64-bit collisions are too rare to construct).
func TestDocTableSeparatesForcedCollisions(t *testing.T) {
	const key = uint64(0xdeadbeef)
	ids := []int{1, 2, 1, 2, 3}
	var dt docTable
	dt.reset(occurrences(len(ids), 2))
	var ps []Phrase
	for p := 0; p+2 <= len(ids); p++ {
		ps = dt.add(ps, ids, key, int32(p), 2)
	}
	want := []Phrase{{Hash: key, TF: 2, Pos: 0, N: 2}, {Hash: key, TF: 1, Pos: 1, N: 2}, {Hash: key, TF: 1, Pos: 3, N: 2}}
	if !reflect.DeepEqual(ps, want) {
		t.Errorf("in-document collisions: phrases %+v, want %+v", ps, want)
	}
}

// forgedTop mirrors TopPhraseIDs — phrase hashes per range, one serial
// DF count, then per range each document deduped again and selected —
// split over workers the same way, with every phrase keyed by
// forge(tokens) instead of its hash.
func forgedTop(e *Extractor, docs [][]int, vocab *tokenize.Vocab, workers int, forge func([]int) uint64) (*HashTable, [][]PhraseID) {
	n, maxN := len(docs), e.MaxNgram()
	forged := func(tab *docTable, ids []int) (ps []Phrase) {
		tab.reset(occurrences(len(ids), maxN))
		for p := range ids {
			for l := 1; l <= maxN && p+l <= len(ids); l++ {
				ps = tab.add(ps, ids, forge(ids[p:p+l]), int32(p), int32(l))
			}
		}
		return ps
	}
	hashes := make([][]uint64, min(workers, n))
	par.IndexedRanges(n, workers, func(w, lo, hi int) {
		var tab docTable
		for _, ids := range docs[lo:hi] {
			for _, p := range forged(&tab, ids) {
				hashes[w] = append(hashes[w], p.Hash)
			}
		}
	})
	df := &HashTable{}
	for _, hs := range hashes {
		for _, h := range hs {
			df.Inc(h)
		}
	}
	top := make([][]PhraseID, n)
	par.Ranges(n, workers, func(lo, hi int) {
		var tab docTable
		var s Selector
		s.Reset(e, n)
		for i := lo; i < hi; i++ {
			top[i] = s.Select(nil, forged(&tab, docs[i]), docs[i], vocab, df)
		}
	})
	return df, top
}

// TestForgedCollisionMergesDF pins the cross-document identity rule: the
// 64-bit hash is the phrase. Two different bigrams, in different
// documents, forged onto one key count as one phrase whose DF is the sum
// of theirs, and selection over the merged table is the same at any
// worker count. With the true hash as the "forge", the mirror must
// reproduce TopPhraseIDs exactly.
func TestForgedCollisionMergesDF(t *testing.T) {
	words := fixtureCorpus(42, 3, 5, 30)
	vocab := tokenize.NewVocab()
	docs := make([][]int, len(words))
	for i, w := range words {
		docs[i] = vocab.Encode(w)
	}
	// A is the first campaign's leading bigram; B is a noise document's
	// leading bigram, which shares no document with A.
	a, b := docs[0][:2], docs[len(docs)-1][:2]
	dfOf := func(ph []int) (df int32) {
		for _, ids := range docs {
			for p := 0; p+len(ph) <= len(ids); p++ {
				if slices.Equal(ids[p:p+len(ph)], ph) {
					df++
					break
				}
			}
		}
		return df
	}
	keyA, keyB := hashIDs(a), hashIDs(b)
	forge := func(ids []int) uint64 {
		if h := hashIDs(ids); h != keyB {
			return h
		}
		return keyA
	}
	e := &Extractor{MaxN: 3, TopFraction: 0.3}
	var ref [][]PhraseID
	for _, workers := range []int{1, 2, 5} {
		if _, top := forgedTop(e, docs, vocab, workers, hashIDs); !reflect.DeepEqual(top, e.TopPhraseIDs(docs, vocab).Top) {
			t.Fatalf("workers=%d: the unforged mirror diverged from TopPhraseIDs", workers)
		}
		df, top := forgedTop(e, docs, vocab, workers, forge)
		if got, want := df.Get(keyA), dfOf(a)+dfOf(b); got != want || df.Get(keyB) != 0 {
			t.Fatalf("workers=%d: DF(A) = %d, DF(B) = %d; want the merged %d and 0", workers, got, df.Get(keyB), want)
		}
		if ref == nil {
			ref = top
		} else if !reflect.DeepEqual(top, ref) {
			t.Errorf("workers=%d: selection over the merged table differs from workers=1", workers)
		}
	}
}

// Score computes the tf-idf of one phrase given its term frequency,
// document frequency, and corpus size: the formula the Selector applies.
func Score(tf, df, numDocs int) float64 {
	if df <= 0 || numDocs <= 0 {
		return 0
	}
	return float64(tf) * math.Log(float64(numDocs)/float64(df))
}

func TestScore(t *testing.T) {
	if got := Score(2, 1, 10); math.Abs(got-2*math.Log(10)) > 1e-12 {
		t.Errorf("Score = %v", got)
	}
	// A phrase in every document scores zero.
	if got := Score(5, 10, 10); got != 0 {
		t.Errorf("ubiquitous phrase score = %v, want 0", got)
	}
	if got := Score(1, 0, 10); got != 0 {
		t.Errorf("df=0 score = %v", got)
	}
}

func TestTopPhrasesPrefersRarePhrases(t *testing.T) {
	// Every doc shares "the common prefix"; docs 0,1 share a rare phrase.
	docs := [][]string{
		tok("the common prefix cheap viagra call now"),
		tok("the common prefix cheap viagra call today"),
		tok("the common prefix totally unrelated words here"),
		tok("the common prefix more different content again"),
		tok("the common prefix nothing shared at all"),
	}
	e := &Extractor{MaxN: 3, TopFraction: 0.10}
	top := e.TopPhrases(docs)
	// Docs 0 and 1 share the rare "cheap viagra call" phrases: selected.
	for _, i := range []int{0, 1} {
		if len(top[i]) == 0 {
			t.Fatalf("doc %d got no top phrases", i)
		}
	}
	for i := range docs {
		for _, p := range top[i] {
			// "the common prefix" appears in all docs: idf=0, never top.
			if p == Key([]string{"the", "common", "prefix"}) {
				t.Errorf("doc %d selected a zero-idf phrase", i)
			}
		}
	}
	// Docs 2-4 spend their budget on their own df=1 phrases (harmless:
	// they can never become edges), never on the ubiquitous prefix.
	for _, i := range []int{2, 3, 4} {
		if len(top[i]) == 0 {
			t.Errorf("doc %d selected nothing", i)
		}
	}
}

func TestTopPhrasesEmptyDoc(t *testing.T) {
	e := &Extractor{}
	top := e.TopPhrases([][]string{nil, tok("one doc"), tok("one doc")})
	if top[0] != nil {
		t.Errorf("empty doc top = %v", top[0])
	}
	// The two duplicates share every phrase: both select something.
	if len(top[1]) == 0 || len(top[2]) == 0 {
		t.Errorf("duplicate docs should keep phrases: %v", top)
	}
}

func TestTopPhrasesSingletonDocsShareNothing(t *testing.T) {
	// Fully distinct documents select only their own df=1 phrases, so
	// their selections are disjoint — no edges can form.
	e := &Extractor{}
	top := e.TopPhrases([][]string{
		tok("completely unique text one"),
		tok("entirely distinct material two"),
	})
	seen := make(map[string]bool)
	for _, phrases := range top {
		for _, p := range phrases {
			if seen[p] {
				t.Errorf("distinct docs share selected phrase %q", p)
			}
			seen[p] = true
		}
	}
}

func TestTopPhrasesDeterministic(t *testing.T) {
	docs := [][]string{tok("x y z"), tok("x y w"), tok("p q r")}
	e := &Extractor{}
	a := e.TopPhrases(docs)
	b := e.TopPhrases(docs)
	if !reflect.DeepEqual(a, b) {
		t.Error("TopPhrases not deterministic")
	}
}

func TestTopFractionControlsCount(t *testing.T) {
	doc := strings.Fields("a b c d e f g h i j k l m n o p q r s t")
	// Exact duplicate pair (every phrase df=2, equal scores) plus an
	// unrelated third doc so idf > 0.
	docs := [][]string{doc, doc, tok("unrelated other text entirely")}
	small := (&Extractor{MaxN: 2, TopFraction: 0.05}).TopPhrases(docs)
	large := (&Extractor{MaxN: 2, TopFraction: 0.5}).TopPhrases(docs)
	if len(small[0]) == 0 || len(small[0]) >= len(large[0]) {
		t.Errorf("top-fraction not respected: %d vs %d", len(small[0]), len(large[0]))
	}
	// Budget ceil(0.5 · 39) = 20; all scores tie, lexicographic order
	// selects the 20 unigrams (each bigram overlaps a selected unigram).
	if len(large[0]) != 20 {
		t.Errorf("large fraction count = %d, want 20", len(large[0]))
	}
}

// Property: near-duplicate documents share at least one top phrase —
// the contract InfoShield-Coarse depends on.
func TestNearDuplicatesShareTopPhrase(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := []string{"this", "is", "a", "great", "soap", "and", "the", "price", "is", "great"}
		// Two near-duplicates: one word substituted.
		d1 := append([]string(nil), base...)
		d2 := append([]string(nil), base...)
		d2[4] = "chair"
		// Plus background noise docs of random words.
		vocabulary := []string{"red", "blue", "fast", "slow", "cat", "dog", "run", "eat", "sky", "sea"}
		docs := [][]string{d1, d2}
		for i := 0; i < 20; i++ {
			doc := make([]string, 8)
			for j := range doc {
				doc[j] = vocabulary[rng.Intn(len(vocabulary))]
			}
			docs = append(docs, doc)
		}
		e := &Extractor{}
		top := e.TopPhrases(docs)
		set := make(map[string]bool)
		for _, p := range top[0] {
			set[p] = true
		}
		for _, p := range top[1] {
			if set[p] {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: every selected phrase actually occurs in its document.
func TestTopPhrasesOccurInDoc(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vocabulary := []string{"a", "b", "c", "d", "e"}
		docs := make([][]string, 6)
		for i := range docs {
			doc := make([]string, rng.Intn(10)+1)
			for j := range doc {
				doc[j] = vocabulary[rng.Intn(len(vocabulary))]
			}
			docs[i] = doc
		}
		e := &Extractor{MaxN: 3}
		for i, phrases := range e.TopPhrases(docs) {
			joined := " " + strings.Join(docs[i], " ") + " "
			for _, p := range phrases {
				needle := " " + strings.Join(KeyTokens(p), " ") + " "
				if !strings.Contains(joined, needle) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// referenceTopPhrases is the extractor this package shipped before the
// hashed-key rewrite: string map keys built by strings.Join for every
// n-gram occurrence, a single global DF map, and serial selection. It is
// the behavioral reference the rewrite must match key-for-key.
func referenceTopPhrases(e *Extractor, docs [][]string) [][]string {
	type phraseInfoRef struct{ tf, pos, n int }
	maxN := e.MaxNgram()
	phraseSet := func(tokens []string) map[string]phraseInfoRef {
		set := make(map[string]phraseInfoRef)
		for n := 1; n <= maxN; n++ {
			for i := 0; i+n <= len(tokens); i++ {
				k := Key(tokens[i : i+n])
				info, seen := set[k]
				if !seen {
					info = phraseInfoRef{pos: i, n: n}
				}
				info.tf++
				set[k] = info
			}
		}
		return set
	}
	n := len(docs)
	df := make(map[string]int, n*4)
	sets := make([]map[string]phraseInfoRef, n)
	for i, toks := range docs {
		set := phraseSet(toks)
		sets[i] = set
		for p := range set {
			df[p]++
		}
	}
	out := make([][]string, n)
	frac := e.topFraction()
	type scoredRef struct {
		phrase string
		info   phraseInfoRef
		idf    float64
		score  float64
	}
	for i, set := range sets {
		if len(set) == 0 {
			continue
		}
		cand := make([]scoredRef, 0, len(set))
		maxIdf := 0.0
		for p, info := range set {
			idf := math.Log(float64(n) / float64(df[p]))
			score := float64(info.tf) * idf
			if score <= 0 {
				continue
			}
			if idf > maxIdf {
				maxIdf = idf
			}
			cand = append(cand, scoredRef{p, info, idf, score})
		}
		if len(cand) == 0 {
			continue
		}
		sort.Slice(cand, func(a, b int) bool {
			if cand[a].score != cand[b].score {
				return cand[a].score > cand[b].score
			}
			return cand[a].phrase < cand[b].phrase
		})
		k := int(math.Ceil(frac * float64(len(set))))
		if k < 1 {
			k = 1
		}
		covered := make([]bool, len(docs[i]))
		floor := maxIdf * DefaultRelativeFloor
		var top []string
		for _, c := range cand {
			if len(top) >= k {
				break
			}
			if c.idf < floor {
				continue
			}
			fresh := true
			for p := c.info.pos; p < c.info.pos+c.info.n; p++ {
				if covered[p] {
					fresh = false
					break
				}
			}
			if !fresh {
				continue
			}
			for p := c.info.pos; p < c.info.pos+c.info.n; p++ {
				covered[p] = true
			}
			top = append(top, c.phrase)
		}
		out[i] = top
	}
	return out
}

// fixtureCorpus builds a deterministic mixed corpus: spam campaigns of
// near-duplicates (shared constant chunks, slot substitutions), repeated
// tokens, and a background of noise documents.
func fixtureCorpus(seed int64, campaigns, perCampaign, noise int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	vocabulary := strings.Fields(
		"alpha bravo charlie delta echo foxtrot golf hotel india juliet " +
			"kilo lima mike november oscar papa quebec romeo sierra tango")
	var docs [][]string
	for c := 0; c < campaigns; c++ {
		base := make([]string, 12)
		for i := range base {
			base[i] = vocabulary[rng.Intn(len(vocabulary))]
		}
		for k := 0; k < perCampaign; k++ {
			dup := append([]string(nil), base...)
			for s := 0; s < rng.Intn(3); s++ {
				dup[rng.Intn(len(dup))] = vocabulary[rng.Intn(len(vocabulary))]
			}
			docs = append(docs, dup)
		}
	}
	for k := 0; k < noise; k++ {
		doc := make([]string, rng.Intn(12)+2)
		for i := range doc {
			doc[i] = vocabulary[rng.Intn(len(vocabulary))] + string(rune('0'+rng.Intn(10)))
		}
		docs = append(docs, doc)
	}
	return docs
}

// longCorpus builds documents of hundreds of tokens, the length of
// trafficking ads: campaigns that repeat a long base with a few slot
// substitutions, and noise over a small vocabulary, so long documents
// repeat phrases (tf > 1) and tie on score.
func longCorpus(seed int64, campaigns, perCampaign, noise int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	word := func() string { return fmt.Sprintf("w%d", rng.Intn(60)) }
	var docs [][]string
	for c := 0; c < campaigns; c++ {
		base := make([]string, 150+rng.Intn(250))
		for i := range base {
			base[i] = word()
		}
		for k := 0; k < perCampaign; k++ {
			dup := append([]string(nil), base...)
			for s := 0; s < 1+rng.Intn(8); s++ {
				dup[rng.Intn(len(dup))] = word()
			}
			docs = append(docs, dup)
		}
	}
	for k := 0; k < noise; k++ {
		doc := make([]string, 100+rng.Intn(300))
		for i := range doc {
			doc[i] = word()
		}
		docs = append(docs, doc)
	}
	return docs
}

// TestHashedSelectionMatchesStringReference is the rewrite's equivalence
// gate: on fixture corpora, the hashed-key parallel extractor must select
// exactly the phrases the old string-key serial extractor selected, in
// the same order, for several parameterizations and worker counts. The
// reference sorts every candidate, so it also gates Select's prune of the
// candidates that can never be picked: "longDocs" makes the prune's
// (position, length) table large, and in "containedEarlier" phrases such
// as "a b" first occur before, not inside, a longer phrase that contains
// their tokens ("a b x a b c"), so only first-occurrence spans may count.
func TestHashedSelectionMatchesStringReference(t *testing.T) {
	corpora := map[string][][]string{
		"mixed":      fixtureCorpus(42, 3, 5, 30),
		"dupHeavy":   fixtureCorpus(7, 6, 8, 4),
		"noiseOnly":  fixtureCorpus(13, 0, 0, 25),
		"tinyAndDup": {tok("a b a b a"), tok("a b a b a"), nil, tok("z")},
		"longDocs":   longCorpus(5, 3, 4, 12),
		"containedEarlier": {tok("a b x a b c"), tok("a b x a b c"), tok("a b y"), tok("a b z"),
			tok("x a q"), tok("b c r"), tok("c x a b c a b"), tok("q r s"), tok("a b c")},
	}
	extractors := []Extractor{
		{},
		{MaxN: 2, TopFraction: 0.3},
		{MaxN: 5, TopFraction: 0.05},
	}
	for name, docs := range corpora {
		for _, base := range extractors {
			want := referenceTopPhrases(&base, docs)
			for _, workers := range []int{1, 3, 8} {
				e := base
				e.Workers = workers
				if got := e.TopPhrases(docs); !reflect.DeepEqual(got, want) {
					t.Errorf("%s (maxN=%d frac=%v workers=%d): selection diverged from string reference\n got %v\nwant %v",
						name, base.MaxN, base.TopFraction, workers, got, want)
				}
			}
		}
	}
}

// TestTopPhraseIDsWorkerInvariance: identical PhraseID output for any
// worker count.
func TestTopPhraseIDsWorkerInvariance(t *testing.T) {
	docs := fixtureCorpus(99, 4, 6, 40)
	vocab := tokenize.NewVocab()
	ids := make([][]int, len(docs))
	for i, d := range docs {
		ids[i] = vocab.Encode(d)
	}
	ref := (&Extractor{Workers: 1}).TopPhraseIDs(ids, vocab)
	for _, workers := range []int{2, 5, 16} {
		got := (&Extractor{Workers: workers}).TopPhraseIDs(ids, vocab)
		if !reflect.DeepEqual(got.Top, ref.Top) {
			t.Fatalf("workers=%d: selection differs from workers=1", workers)
		}
	}
}

// twitterWords tokenizes a small synthetic Twitter corpus: 30 genuine
// accounts tweeting in all four languages plus 30 bot accounts, 10 tweets
// each.
func twitterWords() [][]string {
	c := datagen.Twitter(datagen.TwitterConfig{Seed: 3, GenuineAccounts: 30, BotAccounts: 30,
		TweetsPerAccountMin: 10, TweetsPerAccountMax: 10})
	var tk tokenize.Tokenizer
	return tk.All(c.Texts(), 1)
}

// TestTwitterSelectionMatchesStringReference is the equivalence gate on
// real-shaped input: multilingual tweets with campaign near-duplicates.
func TestTwitterSelectionMatchesStringReference(t *testing.T) {
	words := twitterWords()
	for _, base := range []Extractor{{}, {MaxN: 3, TopFraction: 0.25}} {
		want := referenceTopPhrases(&base, words)
		for _, workers := range []int{1, 2, 3, 8} {
			e := base
			e.Workers = workers
			if got := e.TopPhrases(words); !reflect.DeepEqual(got, want) {
				t.Errorf("maxN=%d frac=%v workers=%d: selection diverged from string reference",
					base.MaxN, base.TopFraction, workers)
			}
		}
	}
}

// TestSelectionTablesMatchMapCount checks the shared DF table against a
// plain string-keyed count over every phrase of the Twitter corpus: one
// key per distinct phrase, and every phrase's DF equal to its exact count.
// This is the evidence that hash identity equals exact identity there.
func TestSelectionTablesMatchMapCount(t *testing.T) {
	words := twitterWords()
	vocab := tokenize.NewVocab()
	docs := make([][]int, len(words))
	for i, w := range words {
		docs[i] = vocab.Encode(w)
	}
	df := map[string]int32{}
	for _, w := range words {
		seen := map[string]bool{}
		for p := range w {
			for l := 1; l <= DefaultMaxN && p+l <= len(w); l++ {
				if k := Key(w[p : p+l]); !seen[k] {
					seen[k] = true
					df[k]++
				}
			}
		}
	}
	for _, workers := range []int{1, 3} {
		tab, _ := countDF(docs, workers, DefaultMaxN)
		if tab.Len() != len(df) {
			t.Errorf("workers=%d: %d DF keys, want %d distinct phrases", workers, tab.Len(), len(df))
		}
		for _, ids := range docs {
			for p := range ids {
				for l := 1; l <= DefaultMaxN && p+l <= len(ids); l++ {
					k := Key(vocab.Decode(ids[p : p+l]))
					if got := tab.Get(hashIDs(ids[p : p+l])); got != df[k] {
						t.Fatalf("workers=%d: DF(%q) = %d, want %d", workers, k, got, df[k])
					}
				}
			}
		}
	}
}

// TestPruneMatchesBruteForce holds Select's prune to its rule, pair by
// pair: a candidate is dropped exactly when the first occurrence of a
// candidate earlier in the selection order lies strictly inside its own.
// The selection gates cannot see a prune that drops too little (the
// output stays the same); this test can. Scores come from three values,
// so most comparisons fall through to the lexicographic tie-break.
func TestPruneMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := tokenize.NewVocab()
	var ph Phrases
	var s Selector
	for it := 0; it < 3000; it++ {
		doc := make([]string, 1+rng.Intn(60))
		for i := range doc {
			doc[i] = string(rune('a' + rng.Intn(2+it%6)))
		}
		ids := vocab.Encode(doc)
		ph.Extract([][]int{ids}, 1+rng.Intn(DefaultMaxN))
		var cand []scored
		for i, p := range ph.Doc(0) {
			if rng.Intn(4) > 0 {
				cand = append(cand, scored{float64(rng.Intn(3)), p.Pos, p.N, int32(i)})
			}
		}
		if len(cand) == 0 {
			continue
		}
		rank := s.lexRanks(ids, vocab)
		var want []scored
		for _, c := range cand {
			if !slices.ContainsFunc(cand, func(o scored) bool {
				return o != c && o.pos >= c.pos && o.pos+o.n <= c.pos+c.n && order(rank, o, c) < 0
			}) {
				want = append(want, c)
			}
		}
		if got := s.prune(slices.Clone(cand), len(ids), rank); !slices.Equal(got, want) {
			t.Fatalf("doc %q: prune kept %v, want %v", doc, got, want)
		}
	}
}
