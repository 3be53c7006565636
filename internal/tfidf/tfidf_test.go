package tfidf

import (
	"math"
	"math/rand"
	"reflect"
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
	want := []phraseEntry{
		{hash: hashOf(v, "a"), tf: 2, pos: 0, n: 1},
		{hash: hashOf(v, "a", "b"), tf: 2, pos: 0, n: 2},
		{hash: hashOf(v, "b"), tf: 2, pos: 1, n: 1},
		{hash: hashOf(v, "b", "a"), tf: 1, pos: 1, n: 2},
	}
	if !reflect.DeepEqual(ents, want) {
		t.Errorf("entries = %+v\nwant %+v", ents, want)
	}
	// The table is reused: a second document starts from an empty table
	// and appends after the first document's entries.
	ents = tab.addDoc(ents, v.Encode(tok("b")), 2)
	if got := ents[4:]; len(got) != 1 || got[0].hash != hashOf(v, "b") || got[0].tf != 1 {
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

// TestDFChainHandlesForcedCollisions drives the collision-chain paths of
// both tables directly: genuine 64-bit collisions are too rare to
// construct, so different phrases are counted under one forged key and
// must keep exact, separate counts.
func TestDFChainHandlesForcedCollisions(t *testing.T) {
	const key = uint64(0xdeadbeef)

	// Across documents: the DF table chains [4 5] behind [1 2].
	docs := [][]int{{1, 2, 3}, {4, 5, 6}, {1, 2, 9}}
	tab := newDFTable(0)
	c0 := tab.add(docs, key, 0, 0, 2) // phrase [1 2] in doc 0
	c1 := tab.add(docs, key, 1, 0, 2) // phrase [4 5] in doc 1: collides
	if c := tab.add(docs, key, 2, 0, 2); c != c0 {
		t.Errorf("phrase [1 2] again: cell %d, want %d", c, c0)
	}
	sel := &Selection{docs: docs}
	sel.shards[shardOf(key)] = tab
	for _, tc := range []struct {
		cell int32
		alt  uint16
		df   int
		toks []int
	}{{c0, 0, 2, []int{1, 2}}, {c1, 1, 1, []int{4, 5}}} {
		id := PhraseID{key, tc.alt}
		if got := tab.cells[tc.cell].alt; got != tc.alt {
			t.Errorf("cell %d: alt %d, want %d", tc.cell, got, tc.alt)
		}
		if got := sel.DF(id); got != tc.df {
			t.Errorf("DF(%v) = %d, want %d", id, got, tc.df)
		}
		if got := sel.PhraseTokens(id); !reflect.DeepEqual(got, tc.toks) {
			t.Errorf("PhraseTokens(%v) = %v, want %v", id, got, tc.toks)
		}
	}
	for _, id := range []PhraseID{{key, 2}, {key + 1, 0}} {
		if sel.DF(id) != 0 || sel.PhraseTokens(id) != nil {
			t.Errorf("unknown id %v resolved", id)
		}
	}

	// Within one document: the dedupe table keeps [1 2], [2 1] and [2 3]
	// apart under one key and counts each one's occurrences.
	ids := []int{1, 2, 1, 2, 3}
	var dt docTable
	dt.reset(occurrences(len(ids), 2))
	var ents []phraseEntry
	for p := 0; p+2 <= len(ids); p++ {
		ents = dt.add(ents, ids, key, int32(p), 2)
	}
	want := []phraseEntry{{hash: key, tf: 2, pos: 0, n: 2}, {hash: key, tf: 1, pos: 1, n: 2}, {hash: key, tf: 1, pos: 3, n: 2}}
	if !reflect.DeepEqual(ents, want) {
		t.Errorf("in-document collisions: entries %+v, want %+v", ents, want)
	}
}

// forgedBigramKey replaces the hash of every bigram in the forged
// extractions below, so all bigrams of a corpus share one chain.
const forgedBigramKey = uint64(0x3) << 60

// forgedExtract mirrors TopPhraseIDs's extract and count passes, split
// over workers the same way, with every bigram keyed by forgedBigramKey.
func forgedExtract(docs [][]int, maxN, workers int) (*Selection, []phraseRange) {
	n := len(docs)
	ranges := make([]phraseRange, min(workers, n))
	par.IndexedRanges(n, workers, func(w, lo, hi int) {
		r := &ranges[w]
		r.lo, r.hi = lo, hi
		r.bounds = make([]int32, hi-lo+1)
		var tab docTable
		for i := lo; i < hi; i++ {
			ids := docs[i]
			tab.reset(occurrences(len(ids), maxN))
			for p := range ids {
				for l := 1; l <= maxN && p+l <= len(ids); l++ {
					key := hashIDs(ids[p : p+l])
					if l == 2 {
						key = forgedBigramKey
					}
					r.ents = tab.add(r.ents, ids, key, int32(p), int32(l))
				}
			}
			r.bounds[i-lo+1] = int32(len(r.ents))
		}
		r.groupByShard()
	})
	sel := &Selection{Top: make([][]PhraseID, n), docs: docs}
	par.Each(dfShards, workers, func(s int) { sel.shards[s] = countShard(docs, ranges, s) })
	return sel, ranges
}

// TestForgedChainOrder forces every bigram of a real-shaped corpus into
// one collision chain and checks, for several worker counts, that Alt
// numbers the bigrams by first occurrence in document order, that DF and
// PhraseTokens resolve every Alt, that every entry points at its own
// phrase's cell, and that selection over the forged tables still equals
// the string-key reference.
func TestForgedChainOrder(t *testing.T) {
	words := fixtureCorpus(42, 3, 5, 30)
	vocab := tokenize.NewVocab()
	docs := make([][]int, len(words))
	for i, w := range words {
		docs[i] = vocab.Encode(w)
	}
	// Reference: distinct bigrams by first occurrence, and their df.
	var order []string
	df := map[string]int{}
	for _, w := range words {
		seen := map[string]bool{}
		for p := 0; p+2 <= len(w); p++ {
			k := Key(w[p : p+2])
			if _, ok := df[k]; !ok {
				order = append(order, k)
			}
			if !seen[k] {
				seen[k] = true
				df[k]++
			}
		}
	}
	if len(order) < 50 {
		t.Fatalf("only %d distinct bigrams; the chain should be long", len(order))
	}
	e := &Extractor{MaxN: 3, TopFraction: 0.3}
	want := referenceTopPhrases(e, words)
	for _, workers := range []int{1, 2, 5} {
		sel, ranges := forgedExtract(docs, 3, workers)
		for alt, k := range order {
			id := PhraseID{forgedBigramKey, uint16(alt)}
			if got := Key(vocab.Decode(sel.PhraseTokens(id))); got != k {
				t.Fatalf("workers=%d: Alt %d spells %q, want %q", workers, alt, got, k)
			}
			if got := sel.DF(id); got != df[k] {
				t.Fatalf("workers=%d: DF(%q) = %d, want %d", workers, k, got, df[k])
			}
		}
		if id := (PhraseID{forgedBigramKey, uint16(len(order))}); sel.PhraseTokens(id) != nil {
			t.Fatalf("workers=%d: Alt past the chain end resolved", workers)
		}
		for _, r := range ranges {
			for j := range r.hi - r.lo {
				ids := docs[r.lo+j]
				for _, en := range r.ents[r.bounds[j]:r.bounds[j+1]] {
					c := sel.shards[shardOf(en.hash)].cells[en.cell]
					if !reflect.DeepEqual(docs[c.doc][c.pos:c.pos+c.n], ids[en.pos:en.pos+en.n]) {
						t.Fatalf("workers=%d: doc %d entry at %d points at another phrase's cell", workers, r.lo+j, en.pos)
					}
				}
			}
		}
		rank := lexRank(vocab)
		for w := range ranges {
			sel.selectRange(&ranges[w], rank, e.topFraction(), e.relativeFloor())
		}
		got := make([][]string, len(docs))
		for i, ps := range sel.Top {
			for _, p := range ps {
				got[i] = append(got[i], Key(vocab.Decode(sel.PhraseTokens(p))))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: selection over forged tables diverged from the string reference", workers)
		}
	}
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
	maxN := e.maxN()
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
		floor := maxIdf * e.relativeFloor()
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

// TestHashedSelectionMatchesStringReference is the rewrite's equivalence
// gate: on fixture corpora, the hashed-key parallel extractor must select
// exactly the phrases the old string-key serial extractor selected, in
// the same order, for several parameterizations and worker counts.
func TestHashedSelectionMatchesStringReference(t *testing.T) {
	corpora := map[string][][]string{
		"mixed":      fixtureCorpus(42, 3, 5, 30),
		"dupHeavy":   fixtureCorpus(7, 6, 8, 4),
		"noiseOnly":  fixtureCorpus(13, 0, 0, 25),
		"tinyAndDup": {tok("a b a b a"), tok("a b a b a"), nil, tok("z")},
	}
	extractors := []Extractor{
		{},
		{MaxN: 2, TopFraction: 0.3},
		{MaxN: 5, TopFraction: 0.05, RelativeFloor: 0.8},
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
// worker count, including df values resolved through the table.
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
		for i := range ref.Top {
			for _, p := range ref.Top[i] {
				if got.DF(p) != ref.DF(p) {
					t.Fatalf("workers=%d: df(%v) = %d, want %d", workers, p, got.DF(p), ref.DF(p))
				}
				if !reflect.DeepEqual(got.PhraseTokens(p), ref.PhraseTokens(p)) {
					t.Fatalf("workers=%d: tokens(%v) differ", workers, p)
				}
			}
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

// TestSelectionTablesMatchMapCount checks DF and PhraseTokens for every
// phrase of the Twitter corpus against a plain string-keyed count.
func TestSelectionTablesMatchMapCount(t *testing.T) {
	words := twitterWords()
	vocab := tokenize.NewVocab()
	docs := make([][]int, len(words))
	for i, w := range words {
		docs[i] = vocab.Encode(w)
	}
	df := map[string]int{}
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
		sel := (&Extractor{Workers: workers}).TopPhraseIDs(docs, vocab)
		cells := 0
		for s := range sel.shards {
			cells += len(sel.shards[s].cells)
		}
		if cells != len(df) {
			t.Errorf("workers=%d: %d DF cells, want %d distinct phrases", workers, cells, len(df))
		}
		for _, ids := range docs {
			for p := range ids {
				for l := 1; l <= DefaultMaxN && p+l <= len(ids); l++ {
					id := PhraseID{Hash: hashIDs(ids[p : p+l])}
					k := Key(vocab.Decode(ids[p : p+l]))
					if got := sel.DF(id); got != df[k] {
						t.Fatalf("workers=%d: DF(%q) = %d, want %d", workers, k, got, df[k])
					}
					if got := sel.PhraseTokens(id); !reflect.DeepEqual(got, ids[p:p+l]) {
						t.Fatalf("workers=%d: PhraseTokens(%q) = %v", workers, k, got)
					}
				}
			}
		}
	}
}
