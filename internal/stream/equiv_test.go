package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"infoshield/internal/align"
	"infoshield/internal/core"
	"infoshield/internal/mdl"
	"infoshield/internal/tokenize"
)

// referenceMatch is the retained pre-index reference scan: the full
// wildcard DP (align.PairwiseWildScratch, pinned op-for-op to the
// allocating PairwiseWild oracle by TestPairwiseWildScratchMatchesPairwiseWild)
// against every template in ascending order, with the per-probe
// slot-word rebuild and the unhoisted mdl.DataCostMatched — no
// candidate pruning, no bounds, no banding, no hoisted costs. The
// equivalence gate below checks the tiered path probe-by-probe against
// this.
func referenceMatch(d *Detector, toks []int) int {
	if len(toks) == 0 || len(d.templates) == 0 {
		return -1
	}
	V := d.vocab.Size()
	standalone := mdl.DocCost(len(toks), V)
	best, bestCost := -1, standalone
	numT := len(d.templates)
	var sc align.Scratch
	for ti := range d.templates {
		t := &d.templates[ti]
		a := align.PairwiseWildScratch(t.Tokens, t.Wild, toks, &sc)
		slotWords := make([]int, 0, 4)
		for _, w := range t.Wild {
			if w {
				slotWords = append(slotWords, 1)
			}
		}
		cost := mdl.DataCostMatched(mdl.AlignStats{
			AlignLen:   a.Len(),
			Unmatched:  a.Distance(),
			AddedWords: a.Subs + a.Inss,
			SlotWords:  slotWords,
		}, numT, V)
		if cost < bestCost {
			best, bestCost = ti, cost
		}
	}
	return best
}

// randomStreamCorpus mixes campaign near-duplicates, mutated campaign
// variants, and unique-word noise — the shapes that exercise match,
// buffer, and flush paths.
func randomStreamCorpus(rng *rand.Rand, n int) []string {
	families := []string{
		"limited offer buy the premium golden package today visit",
		"hot deal super cheap flights to sunny islands call agent",
		"brand new luxury watches heavy discount original box ship",
		"work from home earn serious money weekly no experience",
	}
	docs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			f := families[rng.Intn(len(families))]
			docs = append(docs, fmt.Sprintf("%s site%04d.example now", f, rng.Intn(3000)))
		case 2:
			// Mutated campaign member: a word dropped or replaced.
			f := families[rng.Intn(len(families))]
			words := []byte(f)
			if rng.Intn(2) == 0 && len(words) > 10 {
				cut := 5 + rng.Intn(len(words)-10)
				words = append(words[:cut], words[cut+1:]...)
			}
			docs = append(docs, fmt.Sprintf("%s extra%d token%d", string(words), rng.Intn(40), rng.Intn(40)))
		default:
			k := rng.Intn(1 << 20)
			docs = append(docs, fmt.Sprintf("nq%da nq%db nq%dc nq%dd nq%de nq%df", k, k, k, k, k, k))
		}
	}
	return docs
}

// compareDetectors fails the test unless a and b agree on every piece of
// caller-visible state: verdicts, template order and contents,
// DocCounts, and the pending buffer.
func compareDetectors(t *testing.T, label string, a, b *Detector) {
	t.Helper()
	if !reflect.DeepEqual(a.verdicts, b.verdicts) {
		t.Fatalf("%s: verdicts differ", label)
	}
	if len(a.templates) != len(b.templates) {
		t.Fatalf("%s: template counts %d vs %d", label, len(a.templates), len(b.templates))
	}
	for ti := range a.templates {
		at, bt := &a.templates[ti], &b.templates[ti]
		if !reflect.DeepEqual(at.Tokens, bt.Tokens) || !reflect.DeepEqual(at.Wild, bt.Wild) ||
			at.DocCount != bt.DocCount {
			t.Fatalf("%s: template %d differs: %+v vs %+v", label, ti, at, bt)
		}
	}
	if !reflect.DeepEqual(a.pendingIDs, b.pendingIDs) || !reflect.DeepEqual(a.pendingTexts, b.pendingTexts) {
		t.Fatalf("%s: pending buffers differ", label)
	}
	// Lifecycle bookkeeping is maintained unconditionally (the recency
	// clock is a pure per-document function), so it must agree too.
	if a.liveCount != b.liveCount || a.anyDead != b.anyDead {
		t.Fatalf("%s: live %d/%v vs %d/%v", label, a.liveCount, a.anyDead, b.liveCount, b.anyDead)
	}
	if !reflect.DeepEqual(a.dead, b.dead) || !reflect.DeepEqual(a.forward, b.forward) ||
		!reflect.DeepEqual(a.lastMatch, b.lastMatch) {
		t.Fatalf("%s: lifecycle state differs", label)
	}
}

// TestStreamPruningEquivalence drives the tiered serving path — bucket
// skips, saturated-token credits, best-first candidate ordering, the
// bit-parallel distance refinement — against the retained reference scan
// probe by probe, over randomized corpora with interleaved flushes, then
// replays the corpus through AddBatch at several worker counts against
// the serially fed detector. Every verdict must equal the reference
// scan's, and assignments, template order, and DocCounts must be
// byte-identical across worker counts: the bounds may only skip
// templates that provably cannot win, and reordering may not change
// which template wins a tie.
func TestStreamPruningEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs := randomStreamCorpus(rng, 400)

		pruned := New(core.Options{})
		pruned.BatchSize = 1 << 30

		var tk tokenize.Tokenizer
		var scratch matchScratch
		var probeStats MatchStats
		for i, text := range docs {
			// Intercept the pruned detector's verdict before committing it,
			// so it can be checked against the reference scan on the very
			// same state.
			toks := pruned.vocab.Encode(tk.Tokens(text))
			verdict := pruned.match(toks, pruned.vocab.Size(), &scratch, &probeStats)
			if ref := referenceMatch(pruned, toks); verdict != ref {
				t.Fatalf("seed %d doc %d: indexed verdict %d != reference %d (templates=%d)",
					seed, i, verdict, ref, pruned.NumTemplates())
			}
			pruned.apply(text, toks, verdict)
			if i == len(docs)/3 || i == 2*len(docs)/3 {
				pruned.Flush()
			}
		}
		pruned.Flush()

		// The bound must have done real work on this corpus, and every
		// candidate is either pruned or aligned — never both, never neither.
		if probeStats.DPPruned+probeStats.DPRuns != probeStats.Candidates {
			t.Fatalf("seed %d: pruned %d + runs %d != candidates %d",
				seed, probeStats.DPPruned, probeStats.DPRuns, probeStats.Candidates)
		}
		if probeStats.Candidates > 0 && probeStats.DPPruned == 0 {
			t.Errorf("seed %d: lower bound never pruned a candidate", seed)
		}
		if probeStats.Examined > 0 && probeStats.BitDPRuns == 0 {
			t.Errorf("seed %d: bit-parallel refinement never ran", seed)
		}
		// The rare-token bitmap and the postings walk partition the pruned
		// probes: every probe either proved all its tokens dead via the
		// bitmap or walked at least one chain — never both, never neither.
		if probeStats.BitmapSkips+probeStats.PostingsWalks != probeStats.Probes {
			t.Fatalf("seed %d: bitmap skips %d + walks %d != probes %d",
				seed, probeStats.BitmapSkips, probeStats.PostingsWalks, probeStats.Probes)
		}
		// Every banded alignment is one of the DP runs, and its band is
		// seeded with the exact bit-parallel distance, so no widening retry
		// can ever fire on the serving path.
		if probeStats.BandRuns > probeStats.DPRuns {
			t.Fatalf("seed %d: band runs %d > DP runs %d",
				seed, probeStats.BandRuns, probeStats.DPRuns)
		}
		if probeStats.BandRetries != 0 {
			t.Fatalf("seed %d: %d band retries on exact-seeded bands", seed, probeStats.BandRetries)
		}

		// The same corpus through the batched fan-out at several worker
		// counts must land on the serial detector's exact state — the
		// tiered path stays verdict-identical under parallel scheduling.
		for _, workers := range []int{1, 2, 4} {
			d := New(core.Options{Workers: workers})
			d.BatchSize = 1 << 30
			// Segment exactly at the serial loop's flush points (after docs
			// len/3 and 2·len/3) so both mine identical batches.
			cut1, cut2 := len(docs)/3+1, 2*len(docs)/3+1
			for _, seg := range [][]string{docs[:cut1], docs[cut1:cut2], docs[cut2:]} {
				d.AddBatch(seg)
				d.Flush()
			}
			compareDetectors(t, fmt.Sprintf("seed %d workers %d", seed, workers), pruned, d)
			st := d.Stats()
			if st.DPPruned+st.DPRuns != st.Candidates {
				t.Fatalf("seed %d workers %d: pruned %d + runs %d != candidates %d",
					seed, workers, st.DPPruned, st.DPRuns, st.Candidates)
			}
			if st.BitmapSkips+st.PostingsWalks != st.Probes {
				t.Fatalf("seed %d workers %d: bitmap skips %d + walks %d != probes %d",
					seed, workers, st.BitmapSkips, st.PostingsWalks, st.Probes)
			}
			if st.BandRuns > st.DPRuns || st.BandRetries != 0 {
				t.Fatalf("seed %d workers %d: band runs %d (DP runs %d), retries %d",
					seed, workers, st.BandRuns, st.DPRuns, st.BandRetries)
			}
		}
	}
	checkLongTemplates(t)
}

// checkLongTemplates is TestStreamPruningEquivalence's case for
// templates past align.WildBitCap, the shape legal and other long-form
// corpora mine: such a reference has no bit-parallel distance, so its
// exact branch runs the full fill unbanded. It registers templates of
// 65–130 tokens, near-duplicate families among them, next to short ones,
// and probes mutated copies against the reference scan. DPRuns >
// BandRuns proves the unbanded branch ran.
func checkLongTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	word := func() string { return fmt.Sprintf("lw%d", rng.Intn(600)) }
	d := New(core.Options{})
	d.BatchSize = 1 << 30
	var bases [][]string
	var wilds [][]bool
	for f := 0; f < 4; f++ {
		base := make([]string, 65+rng.Intn(66))
		for i := range base {
			base[i] = word()
		}
		// Each family registers its base, a variant with a few words
		// replaced, and a 40-token prefix that falls under the bit cap.
		variant := slices.Clone(base)
		for k := 0; k < 4; k++ {
			variant[rng.Intn(len(variant))] = word()
		}
		for _, words := range [][]string{base, variant, base[:40]} {
			wild := make([]bool, len(words))
			for i := range wild {
				wild[i] = rng.Intn(12) == 0
			}
			if _, err := d.Register(words, wild); err != nil {
				t.Fatal(err)
			}
			bases = append(bases, words)
			wilds = append(wilds, wild)
		}
	}

	var tk tokenize.Tokenizer
	var scratch matchScratch
	var st MatchStats
	longHits := 0
	for i := 0; i < 300; i++ {
		k := rng.Intn(len(bases))
		var words []string
		for j, w := range bases[k] {
			switch r := rng.Intn(40); {
			case wilds[k][j] || r == 0:
				words = append(words, word())
			case r == 1: // dropped
			case r == 2:
				words = append(words, w, word())
			default:
				words = append(words, w)
			}
		}
		text := strings.Join(words, " ")
		toks := d.vocab.Encode(tk.Tokens(text))
		verdict := d.match(toks, d.vocab.Size(), &scratch, &st)
		if ref := referenceMatch(d, toks); verdict != ref {
			t.Fatalf("long probe %d: indexed verdict %d != reference %d", i, verdict, ref)
		}
		if verdict >= 0 && len(d.templates[verdict].Tokens) > align.WildBitCap {
			longHits++
		}
		d.apply(text, toks, verdict)
	}
	if st.DPPruned+st.DPRuns != st.Candidates {
		t.Fatalf("long: pruned %d + runs %d != candidates %d", st.DPPruned, st.DPRuns, st.Candidates)
	}
	if st.DPRuns <= st.BandRuns {
		t.Fatalf("long: DP runs %d <= band runs %d: the unbanded branch never ran", st.DPRuns, st.BandRuns)
	}
	if st.BandRuns == 0 || st.BandRetries != 0 {
		t.Fatalf("long: band runs %d, retries %d", st.BandRuns, st.BandRetries)
	}
	if longHits == 0 {
		t.Fatal("long: no probe matched a template past the bit cap")
	}
}

// TestStreamWorkersEquivalence checks AddBatch output — assignments,
// templates, DocCounts, pending state, and serving stats — is identical
// for workers ∈ {1, 2, 4, 8} and identical to a serial Add loop,
// including flushes that fire mid-batch (BatchSize 64 over 400 docs).
func TestStreamWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	docs := randomStreamCorpus(rng, 400)

	serial := New(core.Options{Workers: 1})
	serial.BatchSize = 64
	var serialIDs []int
	for _, text := range docs {
		serialIDs = append(serialIDs, serial.Add(text))
	}

	for _, workers := range []int{1, 2, 4, 8} {
		d := New(core.Options{Workers: workers})
		d.BatchSize = 64
		// Split the corpus into a few AddBatch calls so batches both span
		// and straddle flush boundaries.
		var ids []int
		for lo := 0; lo < len(docs); lo += 150 {
			hi := lo + 150
			if hi > len(docs) {
				hi = len(docs)
			}
			ids = append(ids, d.AddBatch(docs[lo:hi])...)
		}
		if !reflect.DeepEqual(ids, serialIDs) {
			t.Fatalf("workers=%d: ids differ", workers)
		}
		compareDetectors(t, fmt.Sprintf("workers=%d", workers), serial, d)
		if got, want := d.Stats().Counters(), serial.Stats().Counters(); got != want {
			t.Fatalf("workers=%d: stats %+v != serial %+v", workers, got, want)
		}
	}
}

// fuzzStreamDocs turns one fuzz input into a bounded document list.
func fuzzStreamDocs(data string) []string {
	const maxDocs, maxLen = 16, 80
	var texts []string
	start := 0
	for i := 0; i <= len(data) && len(texts) < maxDocs; i++ {
		if i == len(data) || data[i] == '\n' {
			line := data[start:i]
			if len(line) > maxLen {
				line = line[:maxLen]
			}
			texts = append(texts, line)
			start = i + 1
		}
	}
	return texts
}

// derivedTemplates is the number of templates FuzzStreamOps registers
// in lifecycle mode: evicting all but the 3-template cap leaves at least
// rebuildMinTombs tombstones.
const derivedTemplates = rebuildMinTombs + 8

// registerDerived registers derivedTemplates templates built from the
// fuzz documents' words. Every token carries an upper-case prefix, which
// the lower-casing tokenizer never emits, so no document matches them
// and the first mining pass still sees every buffered document. Template
// i is a unique marker token followed by document i's words, so
// templates of the same document share postings chains.
func registerDerived(t *testing.T, d *Detector, texts []string) {
	t.Helper()
	for i := 0; i < derivedTemplates; i++ {
		words := []string{fmt.Sprintf("R%d", i)}
		for _, w := range strings.Fields(texts[i%len(texts)]) {
			words = append(words, "R"+w)
		}
		if _, err := d.Register(words, make([]bool, len(words))); err != nil {
			t.Fatal(err)
		}
	}
}

// fuzzCompactFloor is the compaction floor of FuzzStreamOps' lifecycle
// mode: low enough that its seed corpus compacts the vocabulary.
const fuzzCompactFloor = 8

// checkDocTokens requires every pending and retained document's token
// ids to decode to its text's tokens; texts[id] is document id's text.
// A compaction or Load that renumbers the vocabulary must carry every
// live document's words across.
func checkDocTokens(t *testing.T, label string, d *Detector, texts []string) {
	t.Helper()
	check := func(kind string, id int, toks []int) {
		if got, want := d.vocab.Decode(toks), d.tk.Tokens(texts[id]); !slices.Equal(got, want) {
			t.Fatalf("%s: %s document %d decodes to %q, want %q", label, kind, id, got, want)
		}
	}
	for i, id := range d.pendingIDs {
		check("pending", id, d.pendingToks[i])
	}
	if d.mine != nil {
		for _, doc := range d.mine.docs {
			check("retained", doc.id, doc.toks)
		}
	}
}

// fuzzCampaigns is a FuzzStreamOps seed: four campaigns against a
// 3-template cap. It mines and reuses the window across flushes, and
// evicts (one doc per step) or snapshots the window mid-stream.
const fuzzCampaigns = "win a cruise to bahamas call 555 now code a1\nnq1a nq1b nq1c nq1d\n" +
	"win a cruise to bahamas call 555 now code b2\nnq2a nq2b nq2c nq2d\n" +
	"win a cruise to bahamas call 555 now code c3\ncheap pills online fast ship rx 11\n" +
	"nq3a nq3b nq3c\ncheap pills online fast ship rx 22\ncheap pills online fast ship rx 33\n" +
	"hot singles near you tap here z1\nhot singles near you tap here z2\nnq4a nq4b nq4c\n" +
	"hot singles near you tap here z3\nfree bitcoin giveaway send wallet now t1\n" +
	"free bitcoin giveaway send wallet now t2\nfree bitcoin giveaway send wallet now t3"

// FuzzStreamOps drives interleaved Add / AddBatch / Flush / persist
// round-trips on two detectors — one fed serially, one in batches with
// Workers: 4 — and requires identical verdicts, templates, and stats at
// every step. This generalizes the two equivalence gates above from
// pinned corpora to arbitrary interleavings. The lifecycle bit turns on
// the incremental miner, MDL merge and a 3-template cap, lowers the
// vocabulary compaction floor to fuzzCompactFloor, and first registers
// derivedTemplates templates on both detectors, so the first mining pass
// evicts enough of them to rebuild the index and passes compact the
// vocabulary. After every step, each detector's window DF table is
// checked against a fresh count, its tiered index against a
// from-scratch rebuild (checkIndex), and its live documents' tokens
// against their texts (checkDocTokens), so the index and the vocabulary
// are checked through eviction, merge, compaction and state round trips.
func FuzzStreamOps(f *testing.F) {
	f.Add("big sale call now 555-0101\nbig sale call now 555-0102\nbig sale call now 555-0103\nunrelated chatter", uint32(0b10110), false)
	f.Add("a b c d e\na b c d e\na b x d e\nnoise one two", uint32(0xffff), false)
	f.Add("", uint32(1), false)
	f.Add("big sale call now 555-0101\nbig sale call now 555-0102\nbig sale call now 555-0103\nunrelated chatter", uint32(0b10110), true)
	f.Add(fuzzCampaigns, uint32(0), true)
	f.Add(fuzzCampaigns, uint32(0x24924924), true)
	f.Fuzz(func(t *testing.T, data string, schedule uint32, lifecycle bool) {
		texts := fuzzStreamDocs(data)
		if len(texts) == 0 {
			t.Skip("no docs")
		}
		streamOps(t, texts, schedule, lifecycle)
	})
}

// TestStreamOpsSeedCompacts requires FuzzStreamOps' campaign seed to
// compact the vocabulary, so the fuzzer's gates cover compaction. (The
// seed's other schedule round-trips the state mid-stream, and each Load
// starts the doubling afresh from the words it kept.)
func TestStreamOpsSeedCompacts(t *testing.T) {
	if n := streamOps(t, fuzzStreamDocs(fuzzCampaigns), 0, true); n == 0 {
		t.Error("no vocabulary compaction")
	}
}

// streamOps is FuzzStreamOps' body: it runs one schedule over texts and
// returns the vocabulary compactions the serial detector ran.
func streamOps(t *testing.T, texts []string, schedule uint32, lifecycle bool) int {
	var lc Lifecycle
	if lifecycle {
		lc = Lifecycle{Incremental: true, Merge: true, MaxTemplates: 3}
	}
	a := New(core.Options{})
	a.BatchSize = 4
	a.Lifecycle = lc
	b := New(core.Options{Workers: 4})
	b.BatchSize = 4
	b.Lifecycle = lc
	if lifecycle {
		a.compactFloor, b.compactFloor = fuzzCompactFloor, fuzzCompactFloor
		registerDerived(t, a, texts)
		registerDerived(t, b, texts)
	}

	step, compactions := 0, 0
	for i := 0; i < len(texts); {
		k := 1 + int(schedule>>(uint(step*3)%29)&3)
		if i+k > len(texts) {
			k = len(texts) - i
		}
		chunk := texts[i : i+k]
		var aIDs []int
		for _, tx := range chunk {
			aIDs = append(aIDs, a.Add(tx))
		}
		bIDs := b.AddBatch(chunk)
		if !reflect.DeepEqual(aIDs, bIDs) {
			t.Fatalf("step %d: ids %v vs %v", step, aIDs, bIDs)
		}
		for _, id := range aIDs {
			if av, bv := a.Assignment(id), b.Assignment(id); av != bv {
				t.Fatalf("step %d doc %d: %+v vs %+v", step, id, av, bv)
			}
		}
		switch schedule >> (uint(step) % 31) & 3 {
		case 1:
			a.Flush()
			b.Flush()
		case 2:
			compactions += a.stats.VocabCompactions // Load starts the counters afresh
			// No flush: Save carries the pending buffer (texts + ids), so
			// the fuzzer exercises mid-buffer snapshots.
			a = restarted(t, a)
			b = restarted(t, b)
		}
		checkMineDF(t, fmt.Sprintf("step %d serial", step), a)
		checkMineDF(t, fmt.Sprintf("step %d batched", step), b)
		checkIndex(t, fmt.Sprintf("step %d serial", step), a)
		checkIndex(t, fmt.Sprintf("step %d batched", step), b)
		checkDocTokens(t, fmt.Sprintf("step %d serial", step), a, texts)
		checkDocTokens(t, fmt.Sprintf("step %d batched", step), b, texts)
		i += k
		step++
	}
	a.Flush()
	b.Flush()
	compareDetectors(t, "final", a, b)
	if a.Stats().Counters() != b.Stats().Counters() {
		t.Fatalf("stats %+v vs %+v", a.Stats(), b.Stats())
	}
	return compactions + a.stats.VocabCompactions
}
