package stream

import (
	"math/bits"
	"time"

	"infoshield/internal/align"
	"infoshield/internal/mdl"
)

// The candidate-pruning index is tiered so a probe's work tracks the
// handful of templates that share rare tokens with the document, not the
// size of the template set:
//
//   - Tier 0 — bucket skip. Templates are bucketed by ⌈lg⌉ of their
//     constant-token count, and each bucket keeps the aggregates (max
//     constants, min reference length, slot-count range) that evaluate an
//     admissible lower bound for the *entire bucket* against the
//     document's standalone cost. A skipped bucket never contributes a
//     candidate: its chunks are stepped over during the postings walk and
//     its members are pruned wholesale, in O(1) per bucket.
//
//   - Tier 1 — flat postings. Surviving buckets are probed through
//     token → chunk-chain offset tables over one flat chunk slab (no
//     map[int][]posting: no hashing, no per-token list headers, cache-line
//     sized chunks). Chunks are bucket-homogeneous so the walk tests the
//     bucket-skip bit once per chunk, not once per posting.
//
//   - Tier 2 — saturated tokens. A token carried by more than
//     satThreshold templates (the "call", "now", "the" of ad corpora)
//     stops growing a chain and instead feeds a probe-wide overlap
//     credit added to every template's bound. Overcounting overlap only
//     weakens a lower bound, so this tier trades bound tightness for
//     O(1) probe cost on exactly the tokens whose chains would have been
//     longest — and stays admissible by construction, where classic
//     stop-listing (undercounting) would prune true winners. Templates
//     none of whose rare tokens appear in the document are then mass-
//     pruned per bucket with the credit as their whole overlap, which is
//     what keeps candidate generation sublinear in template count.
//
// Candidates that survive all tiers are ranked best-first (overlap
// descending) so the running bound tightens as early as possible, each is
// re-tested against the bit-parallel exact-distance bound, and only the
// remainder runs the full wildcard DP. Every tier preserves the scan
// verdict exactly; see match for the tie-handling that keeps the
// lowest-index winner semantics under reordering.
const (
	// numBuckets caps the ⌈lg constants⌉ bucketing; templates with 2^18+
	// constant tokens share the last bucket.
	numBuckets = 20
	// satThreshold is the postings-chain length beyond which a token is
	// saturated into the overlap credit (tier 2).
	satThreshold = 64
	// chunkEntries sizes postingChunk to one 64-byte cache line.
	chunkEntries = 7

	noHead  = -1 // token has no postings
	satHead = -2 // token is saturated (tier 2)
)

// CandHistBuckets is the size of the per-probe candidate histogram:
// bucket k counts probes whose surviving-candidate set had ⌈lg(n+1)⌉ = k
// (bucket 0 is exactly zero candidates; the last bucket absorbs 2^14+).
const CandHistBuckets = 16

// bucketOf maps a constant-token count to its tier-0 bucket.
func bucketOf(constCount int) int {
	b := bits.Len(uint(constCount))
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// tmplMeta is the per-template matcher state the probe hot loop reads,
// kept apart from Template so the scan touches only packed fields: the
// shape numbers behind the bounds, and the bit-parallel mask table
// (wildMask, eqToks, eqMasks — arena-backed, built at registration) valid
// when refLen ≤ align.WildBitCap.
type tmplMeta struct {
	refLen   int32
	constCnt int32
	slots    int32
	bucket   int16
	wildMask uint64
	eqToks   []int32
	eqMasks  []uint64
}

// bucketInfo aggregates one tier-0 bucket: the member list (ascending —
// registration appends in template order) and the extrema that make the
// bucket-level bound admissible for every member. live counts members
// that are not lifecycle tombstones; the extrema are not tightened when a
// member dies (they still dominate every live member, so the bound stays
// admissible — merely looser until rebuildIndex compacts the bucket).
type bucketInfo struct {
	members []int32
	live    int
	cmax    int // max constant-token count
	rmin    int // min reference length (constants + slots)
	smin    int // min slot count
	smax    int // max slot count
}

// postingChunk is one cache line of postings for a single token and a
// single bucket: up to chunkEntries (template, multiset count) pairs plus
// the chain link. Bucket homogeneity lets the probe walk skip a whole
// chunk with one bucket test.
type postingChunk struct {
	next   int32
	bucket int16
	n      int16
	tmpl   [chunkEntries]int32
	cnt    [chunkEntries]int32
}

// postingStore holds every posting in one flat chunk slab with dense
// token → head/tail offset tables — the tier-1 replacement for
// map[int][]posting. Appends happen at registration only; probes are
// read-only, so concurrent AddBatch workers share the store without
// synchronization.
type postingStore struct {
	heads  []int32
	tails  []int32
	counts []int32 // postings per token, to trigger saturation
	chunks []postingChunk
	// bsets is the token → bucket-set bitmap (bit b set when the token's
	// live chain holds at least one chunk in bucket b; numBuckets ≤ 32).
	// A probe ANDs it with the tier-0 live-bucket mask to decide in one
	// word test whether walking the chain can contribute anything — the
	// rare-token bitmap skip. Saturation zeroes it: the chain is dead and
	// the token's contribution moves to the overlap credit. Rebuilt with
	// the rest of the index whenever registration replays (Load).
	bsets []uint32
}

func (ps *postingStore) grow(tok int) {
	for len(ps.heads) <= tok {
		ps.heads = append(ps.heads, noHead)
		ps.tails = append(ps.tails, noHead)
		ps.counts = append(ps.counts, 0)
		ps.bsets = append(ps.bsets, 0)
	}
}

// reset empties the store in place, keeping its tables and chunk slab so
// that re-registering the live set allocates nothing for the tokens the
// store has already seen. A token past the old tables and a reset token
// read the same to a probe: no postings, not saturated.
func (ps *postingStore) reset() {
	for i := range ps.heads {
		ps.heads[i], ps.tails[i] = noHead, noHead
	}
	clear(ps.counts)
	clear(ps.bsets)
	ps.chunks = ps.chunks[:0]
}

// add appends one posting, saturating the token once its chain would
// exceed satThreshold (the chain is abandoned in place; orphaned chunks
// cost memory, not probe time).
func (ps *postingStore) add(ti, bucket, tok, count int) {
	ps.grow(tok)
	if ps.heads[tok] == satHead {
		return
	}
	if ps.counts[tok] >= satThreshold {
		ps.heads[tok] = satHead
		ps.tails[tok] = noHead
		ps.bsets[tok] = 0
		return
	}
	ps.counts[tok]++
	ps.bsets[tok] |= 1 << uint(bucket)
	ci := ps.tails[tok]
	if ci == noHead || int(ps.chunks[ci].n) == chunkEntries || ps.chunks[ci].bucket != int16(bucket) {
		ps.chunks = append(ps.chunks, postingChunk{next: noHead, bucket: int16(bucket)})
		ni := int32(len(ps.chunks) - 1)
		if ci == noHead {
			ps.heads[tok] = ni
		} else {
			ps.chunks[ci].next = ni
		}
		ps.tails[tok] = ni
		ci = ni
	}
	ch := &ps.chunks[ci]
	ch.tmpl[ch.n] = int32(ti)
	ch.cnt[ch.n] = int32(count)
	ch.n++
}

// tmplIndex is the tiered candidate-pruning index over the mined template
// set. Registration is single-writer (the detector's owning goroutine);
// probes are read-only and run concurrently from AddBatch workers. The
// reg* slices are the pooled registration scratch: dense per-token counts
// and bit masks with sparse reset via the order list, so registering a
// template — the Load hot loop at 100k templates — allocates nothing in
// steady state.
type tmplIndex struct {
	meta    []tmplMeta
	buckets [numBuckets]bucketInfo
	store   postingStore
	eqTokA  arena[int32]
	eqMaskA arena[uint64]

	regCount []int32
	regMask  []uint64
	regOrder []int
	regToks  []int32
	regMasks []uint64
}

// add registers template ti's constant-token multiset, mask table, and
// bucket membership. Wild positions are excluded from postings: a slot's
// consensus token is matching decoration, not a constant the document
// must supply.
func (ix *tmplIndex) add(ti int, tokens []int, wild []bool, slots int) {
	refLen := len(tokens)
	useBits := refLen <= align.WildBitCap
	order := ix.regOrder[:0]
	var wildMask uint64
	for i, tok := range tokens {
		if wild[i] {
			if useBits {
				wildMask |= 1 << uint(i)
			}
			continue
		}
		for len(ix.regCount) <= tok {
			ix.regCount = append(ix.regCount, 0)
			ix.regMask = append(ix.regMask, 0)
		}
		if ix.regCount[tok] == 0 {
			order = append(order, tok)
			ix.regMask[tok] = 0
		}
		ix.regCount[tok]++
		if useBits {
			ix.regMask[tok] |= 1 << uint(i)
		}
	}
	align.SortInts(order)
	ix.regOrder = order

	constCnt := refLen - slots
	b := bucketOf(constCnt)
	mt := tmplMeta{
		refLen:   int32(refLen),
		constCnt: int32(constCnt),
		slots:    int32(slots),
		bucket:   int16(b),
		wildMask: wildMask,
	}
	if useBits {
		toks := ix.regToks[:0]
		masks := ix.regMasks[:0]
		for _, tok := range order {
			toks = append(toks, int32(tok))
			masks = append(masks, ix.regMask[tok])
		}
		ix.regToks, ix.regMasks = toks, masks
		mt.eqToks = ix.eqTokA.copyIn(toks)
		mt.eqMasks = ix.eqMaskA.copyIn(masks)
	}
	for _, tok := range order {
		ix.store.add(ti, b, tok, int(ix.regCount[tok]))
		ix.regCount[tok] = 0 // sparse reset; regMask re-zeroes on first touch
	}

	bi := &ix.buckets[b]
	if len(bi.members) == 0 {
		bi.cmax, bi.rmin, bi.smin, bi.smax = constCnt, refLen, slots, slots
	} else {
		if constCnt > bi.cmax {
			bi.cmax = constCnt
		}
		if refLen < bi.rmin {
			bi.rmin = refLen
		}
		if slots < bi.smin {
			bi.smin = slots
		}
		if slots > bi.smax {
			bi.smax = slots
		}
	}
	bi.members = append(bi.members, int32(ti))
	bi.live++
	ix.meta = append(ix.meta, mt)
}

// addDead appends a tombstone slot to the meta table so template indices
// stay aligned when rebuildIndex re-registers a template set that holds
// retired templates: the slot joins no bucket and no postings chain, so
// probes can never surface it.
func (ix *tmplIndex) addDead() {
	ix.meta = append(ix.meta, tmplMeta{bucket: -1})
}

// Stats counts the serving path's matching work since the detector was
// created — the streaming analogue of Result.Timings()'s stage breakdown.
// DPPruned / Candidates is the DP-skip rate; Examined / Probes is the
// mean surviving-candidate set the tiered index hands to the bounded
// scan. All counters are pure per-document functions, so they are
// identical for any Options.Workers. The struct stays ==-comparable
// (fixed-size histogram) — tests rely on it.
type Stats struct {
	// Probes counts documents tested against a non-empty template set.
	Probes int
	// Candidates counts template candidates considered across all probes
	// (Σ per-probe template-set size).
	Candidates int
	// Examined counts candidates that survived the tiered index (bucket
	// skip + untouched mass-prune) and reached the per-template bound.
	Examined int
	// DPRuns counts full wildcard-alignment DPs executed.
	DPRuns int
	// DPPruned counts candidates resolved without the full DP: skipped
	// buckets, mass-pruned untouched templates, and per-candidate bound
	// rejections (including the bit-parallel refinements).
	DPPruned int
	// BitDPRuns counts bit-parallel exact-distance evaluations.
	BitDPRuns int
	// BitDPPruned counts candidates the exact-distance bound rejected
	// after the overlap bound had passed them (a subset of DPPruned).
	BitDPPruned int
	// BandRuns counts exact alignments routed through the banded DP
	// (references within the bit cap, seeded by the bit-parallel
	// distance); always ≤ DPRuns. BandRetries counts band widenings —
	// zero whenever the seed distance is exact, so any nonzero value is a
	// bug signal, not a tuning knob.
	BandRuns    int
	BandRetries int
	// BitmapSkips counts probes whose tokens touched no live bucket (the
	// token → bucket-set bitmap proved the whole postings walk useless);
	// PostingsWalks counts probes that walked at least one chain. On the
	// pruned path BitmapSkips + PostingsWalks == Probes.
	BitmapSkips   int
	PostingsWalks int
	// WalkNs / BoundNs / BitDPNs / ExactDPNs attribute pruned-path
	// wall-clock to the matcher's stages: tier-0 + postings walk +
	// candidate assembly, the batched bound loop, the bit-parallel
	// distance refinements (scan time minus exact DPs), and the exact
	// alignments. Unlike every other field they are wall-clock — NOT a
	// pure per-document function — so cross-worker equivalence checks
	// must compare through Counters(), which zeroes them.
	WalkNs    int64
	BoundNs   int64
	BitDPNs   int64
	ExactDPNs int64
	// Flushes counts mining passes; FlushDocs the pending documents they
	// consumed (Σ per-flush buffer size).
	Flushes   int
	FlushDocs int
	// TemplatesMined counts templates accepted by mining passes;
	// TemplatesMerged / TemplatesEvicted / TemplatesAged count lifecycle
	// retirements by cause (MDL merge, cap eviction, TTL age-out). Live
	// templates = TemplatesMined + registrations − the three retirement
	// counters.
	TemplatesMined   int
	TemplatesMerged  int
	TemplatesEvicted int
	TemplatesAged    int
	// MineReusedDocs counts retained documents the incremental miner
	// re-clustered from its cross-flush window without re-extracting
	// their phrases; MineClusteredDocs counts all documents handed to the
	// clustering stage across incremental flushes (reused + new). Their
	// ratio is the incremental-coarse reuse rate; re-clustering the whole
	// window would count every retained document every flush.
	MineReusedDocs    int
	MineClusteredDocs int
	// CandHist is the log2 histogram of per-probe Examined sizes: bucket
	// k counts probes with ⌈lg(n+1)⌉ = k surviving candidates. A drift
	// toward high buckets says index pruning is degrading before mean
	// latency shows it.
	CandHist [CandHistBuckets]int
}

func (s *Stats) add(o Stats) {
	s.Probes += o.Probes
	s.Candidates += o.Candidates
	s.Examined += o.Examined
	s.DPRuns += o.DPRuns
	s.DPPruned += o.DPPruned
	s.BitDPRuns += o.BitDPRuns
	s.BitDPPruned += o.BitDPPruned
	s.BandRuns += o.BandRuns
	s.BandRetries += o.BandRetries
	s.BitmapSkips += o.BitmapSkips
	s.PostingsWalks += o.PostingsWalks
	s.WalkNs += o.WalkNs
	s.BoundNs += o.BoundNs
	s.BitDPNs += o.BitDPNs
	s.ExactDPNs += o.ExactDPNs
	s.Flushes += o.Flushes
	s.FlushDocs += o.FlushDocs
	s.TemplatesMined += o.TemplatesMined
	s.TemplatesMerged += o.TemplatesMerged
	s.TemplatesEvicted += o.TemplatesEvicted
	s.TemplatesAged += o.TemplatesAged
	s.MineReusedDocs += o.MineReusedDocs
	s.MineClusteredDocs += o.MineClusteredDocs
	for i := range s.CandHist {
		s.CandHist[i] += o.CandHist[i]
	}
}

// Counters returns s with the wall-clock timing fields zeroed — the
// deterministic slice of the stats. Every remaining field is a pure
// per-document function, identical for any Options.Workers; the
// equivalence tests compare detectors through Counters() so scheduling-
// dependent timings don't trip the exact-equality gates.
func (s Stats) Counters() Stats {
	s.WalkNs, s.BoundNs, s.BitDPNs, s.ExactDPNs = 0, 0, 0, 0
	return s
}

// histBucket maps a per-probe candidate count into CandHist.
func histBucket(n int) int {
	b := bits.Len(uint(n))
	if b >= CandHistBuckets {
		b = CandHistBuckets - 1
	}
	return b
}

// matchScratch is the per-goroutine probe state: the overlap accumulator
// (dense per-template, reset sparsely via touched), the sorted-token
// buffer behind the multiset run-length walk, the candidate key buffer,
// the per-bucket counters, and the pooled wildcard-DP table. Exactly one
// goroutine owns a matchScratch at a time; the batched serve path keeps
// one per worker, so a steady-state probe allocates nothing. stats is the
// owner's private counter set, merged into the detector's totals in
// deterministic (ascending-worker) order.
type matchScratch struct {
	overlap   []int
	touched   []int
	sorted    []int
	cands     []int
	bucketHit [numBuckets]int
	skip      [numBuckets]bool
	wild      align.Scratch
	stats     Stats
	// cRef / cSlots / lbs are the structure-of-arrays candidate batch:
	// one gather pass pulls the surviving candidates' shape numbers out
	// of the meta slab, then the bound loop runs branch-light over flat
	// parallel arrays instead of re-chasing meta per candidate, and the
	// scan reads the precomputed bounds back by position.
	cRef   []int32
	cSlots []int32
	lbs    []float64
}

// bucketBound is the tier-0 admissible lower bound on the matched cost of
// any member of bucket bi against a document of docLen tokens, given an
// upper bound on any member's constant overlap. It evaluates the same
// expression tree as the per-candidate bound align.WildBounder.Bound at
// componentwise-dominated inputs — alignLen from the bucket-min reference length,
// matches from the bucket-max constants and slots, the slot sum over the
// bucket-min slot count (every member's cost sums the identical all-ones
// S(1) terms, so dropped terms are nonnegative) — so bucketBound ≤ member
// bound ≤ exact cost holds in floating point, not just exact arithmetic.
// The bound runs through the probe's hoisted WildBounder, whose CostOnes
// is bit-identical to the mdl.DataCostMatched call it replaces.
func (d *Detector) bucketBound(bounder align.WildBounder, bi *bucketInfo, docLen, overlap int) float64 {
	alignLen := bi.rmin
	if docLen > alignLen {
		alignLen = docLen
	}
	maxMatches := overlap + bi.smax
	if maxMatches > docLen {
		maxMatches = docLen
	}
	unmatched := alignLen - maxMatches
	if unmatched < 0 {
		unmatched = 0
	}
	added := docLen - maxMatches
	if added < 0 {
		added = 0
	}
	return bounder.CostOnes(alignLen, unmatched, added, bi.smin)
}

// match returns the cheapest template whose encoding of toks beats the
// standalone cost, or -1 — byte-identical to the pre-index full ascending
// scan. The scan's verdict is the lexicographic minimum of (exact cost,
// template index) over templates beating the standalone cost, which is
// order-free; the best-first scan preserves it by only skipping a
// candidate when its bound proves it can neither beat the running best
// cost nor tie it from a lower index, and by applying the same
// (cost, index) test on takeover. All comparisons are < / <=: no float
// equality is ever tested.
func (d *Detector) match(toks []int, vocabSize int, sc *matchScratch, st *Stats) int {
	if len(toks) == 0 || d.liveCount == 0 {
		return -1
	}
	// numT is the MDL template count (the lg t term of the matched cost):
	// lifecycle tombstones are out of the model, so only live templates
	// count. total sizes the index-keyed accumulators — template indices
	// still span every slot ever registered. dead is nil until the first
	// retirement, so the hot loops pay one nil test while the lifecycle
	// is off (or idle), not a per-posting bool load.
	numT := d.liveCount
	total := len(d.templates)
	dead := d.dead
	if !d.anyDead {
		dead = nil
	}
	m := len(toks)
	st.Probes++
	st.Candidates += numT
	standalone := mdl.DocCost(m, vocabSize)
	best, bestCost := -1, standalone

	exactCost := func(x int) float64 {
		t := &d.templates[x]
		a := align.PairwiseWildScratch(t.Tokens, t.Wild, toks, &sc.wild)
		return mdl.DataCostMatched(mdl.AlignStats{
			AlignLen:   a.Len(),
			Unmatched:  a.Distance(),
			AddedWords: a.Subs + a.Inss,
			SlotWords:  t.SlotWords,
		}, numT, vocabSize)
	}

	ix := &d.index
	walkStart := time.Now()
	bounder := align.NewWildBounder(m, numT, vocabSize)

	// Tier 0: evaluate each bucket's bound at its best-possible overlap
	// against the standalone cost. A bucket that cannot beat a cost every
	// candidate must beat is dead for this probe regardless of what the
	// postings would have accumulated. Live buckets accumulate into the
	// bitmap mask the postings walk tests tokens against.
	pruned := 0
	var liveMask uint32
	for b := range ix.buckets {
		bi := &ix.buckets[b]
		if bi.live == 0 {
			sc.skip[b] = true
			continue
		}
		ovMax := bi.cmax
		if ovMax > m {
			ovMax = m
		}
		if d.bucketBound(bounder, bi, m, ovMax) >= standalone {
			sc.skip[b] = true
			pruned += bi.live
		} else {
			sc.skip[b] = false
			liveMask |= 1 << uint(b)
		}
	}

	// Tier 1/2: accumulate each live template's constant-token multiset
	// overlap with the document — sort a copy of toks, walk its runs, and
	// credit min(doc count, template count) per posting — while saturated
	// tokens fold into the probe-wide credit. The token → bucket-set
	// bitmap short-circuits each run first: one AND against the live-
	// bucket mask proves whether the chain holds any chunk the walk
	// wouldn't skip, so rare-market probes whose tokens only index dead
	// buckets (and noise probes, whose tokens index nothing) never touch
	// a postings chunk at all.
	if cap(sc.overlap) < total {
		sc.overlap = make([]int, total)
	}
	overlap := sc.overlap[:total]
	sorted := append(sc.sorted[:0], toks...)
	align.SortInts(sorted)
	sc.sorted = sorted
	touched := sc.touched[:0]
	credit := 0
	walked := false
	heads, chunks, bsets := ix.store.heads, ix.store.chunks, ix.store.bsets
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi] == sorted[lo] {
			hi++
		}
		tok := sorted[lo]
		dc := hi - lo
		lo = hi
		if tok >= len(heads) {
			continue
		}
		if bsets[tok]&liveMask == 0 {
			// No live chunk anywhere in the chain: only the saturation
			// credit (if any) survives of what the walk would have done.
			if heads[tok] == satHead {
				credit += dc
			}
			continue
		}
		walked = true
		for ci := heads[tok]; ci != noHead; ci = chunks[ci].next {
			ch := &chunks[ci]
			if sc.skip[ch.bucket] {
				continue
			}
			for k := 0; k < int(ch.n); k++ {
				x := int(ch.tmpl[k])
				if dead != nil && dead[x] {
					continue
				}
				if overlap[x] == 0 {
					touched = append(touched, x)
					sc.bucketHit[ch.bucket]++
				}
				if pc := int(ch.cnt[k]); pc < dc {
					overlap[x] += pc
				} else {
					overlap[x] += dc
				}
			}
		}
	}
	sc.touched = touched
	if walked {
		st.PostingsWalks++
	} else {
		st.BitmapSkips++
	}

	// Candidate keys pack (docLen − overlap) above the template index, so
	// one integer sort yields overlap-descending, index-ascending order —
	// the best-first schedule that tightens bestCost earliest. (Keys use
	// the native 64-bit int; template counts are bounded far below 2^31.)
	cands := sc.cands[:0]
	for _, x := range touched {
		cands = append(cands, (m-overlap[x])<<32|x)
	}

	// Untouched templates of live buckets share one bound: none of their
	// indexed tokens appeared, so their whole overlap is at most the
	// saturation credit (and at most the bucket's constant count). If that
	// bound cannot beat the standalone cost the bucket's untouched
	// remainder is pruned in O(1); otherwise — rare, credit-heavy probes —
	// each untouched member becomes a zero-overlap candidate.
	for b := range ix.buckets {
		if sc.skip[b] {
			continue
		}
		bi := &ix.buckets[b]
		unt := bi.live - sc.bucketHit[b]
		if unt == 0 {
			continue
		}
		ovZ := credit
		if ovZ > bi.cmax {
			ovZ = bi.cmax
		}
		if ovZ > m {
			ovZ = m
		}
		if d.bucketBound(bounder, bi, m, ovZ) >= standalone {
			pruned += unt
			continue
		}
		for _, x32 := range bi.members {
			if dead != nil && dead[x32] {
				continue
			}
			if overlap[x32] == 0 {
				cands = append(cands, m<<32|int(x32))
			}
		}
	}
	align.SortInts(cands)
	sc.cands = cands
	st.Examined += len(cands)
	st.CandHist[histBucket(len(cands))]++

	// Batched bound evaluation: one gather pass pulls the candidates'
	// shape numbers into flat parallel arrays, then the overlap bound —
	// its per-probe constants hoisted into bounder — runs over the whole
	// batch in a tight branch-light loop. The floats are bit-identical to
	// the unhoisted mdl.DataCostMatched bound (pinned by
	// TestWildBounderBitIdentical), so the pruning decisions below cannot
	// drift.
	boundStart := time.Now()
	st.WalkNs += boundStart.Sub(walkStart).Nanoseconds()
	if cap(sc.cRef) < len(cands) {
		sc.cRef = make([]int32, len(cands))
		sc.cSlots = make([]int32, len(cands))
		sc.lbs = make([]float64, len(cands))
	}
	cRef := sc.cRef[:len(cands)]
	cSlots := sc.cSlots[:len(cands)]
	lbs := sc.lbs[:len(cands)]
	for ii, key := range cands {
		mt := &ix.meta[int(uint32(key))]
		cRef[ii] = mt.refLen
		cSlots[ii] = mt.slots
	}
	for ii, key := range cands {
		ov := m - key>>32 + credit
		lbs[ii] = bounder.Bound(int(cRef[ii]), ov, int(cSlots[ii]))
	}
	scanStart := time.Now()
	st.BoundNs += scanStart.Sub(boundStart).Nanoseconds()

	// Best-first bounded scan. canWin is the reordering-safe prune test:
	// a candidate is dead only if its bound shows it can neither strictly
	// beat bestCost nor tie it while owning a smaller index than the
	// current winner (bound ≤ exact, so lb > bestCost ⟹ cost > bestCost,
	// and on the lb ≤ bestCost ≤ cost boundary only a smaller index could
	// still take the verdict).
	canWin := func(lb float64, x int) bool {
		return lb < bestCost || (best >= 0 && x < best && lb <= bestCost)
	}
	var exactNs int64
	for ii, key := range cands {
		x := int(uint32(key))
		if !canWin(lbs[ii], x) {
			pruned++
			continue
		}
		refLen := int(cRef[ii])
		if refLen <= align.WildBitCap {
			// Survivor of the overlap bound: sharpen with the exact
			// unit-cost distance in O(m) word ops before paying the
			// alignment DP.
			mt := &ix.meta[x]
			dist := align.WildDistanceMasked(refLen, mt.wildMask, mt.eqToks, mt.eqMasks, toks)
			st.BitDPRuns++
			rlb := bounder.DistBound(refLen, dist, int(cSlots[ii]))
			if !canWin(rlb, x) {
				pruned++
				st.BitDPPruned++
				continue
			}
			// Winner candidate: the exact distance seeds a band that
			// shrinks the O(n·m) alignment to O(n·dist) with op-for-op
			// identical output (see align.PairwiseWildBanded); the
			// counts feed the same bit-exact hoisted cost.
			st.DPRuns++
			st.BandRuns++
			t := &d.templates[x]
			dpStart := time.Now()
			a, retries := align.PairwiseWildBanded(t.Tokens, t.Wild, toks, dist, &sc.wild)
			exactNs += time.Since(dpStart).Nanoseconds()
			st.BandRetries += retries
			cost := bounder.CostOnes(a.Len(), a.Distance(), a.Subs+a.Inss, int(cSlots[ii]))
			if cost < bestCost || (best >= 0 && x < best && cost <= bestCost) {
				best, bestCost = x, cost
			}
			continue
		}
		st.DPRuns++
		dpStart := time.Now()
		cost := exactCost(x)
		exactNs += time.Since(dpStart).Nanoseconds()
		if cost < bestCost || (best >= 0 && x < best && cost <= bestCost) {
			best, bestCost = x, cost
		}
	}
	st.DPPruned += pruned
	st.ExactDPNs += exactNs
	st.BitDPNs += time.Since(scanStart).Nanoseconds() - exactNs

	// Sparse reset: only touched entries are nonzero, so the accumulator
	// stays all-zero between probes without an O(T) clear; the per-bucket
	// arrays are fixed-size and cleared densely.
	for _, x := range touched {
		overlap[x] = 0
	}
	for b := range sc.bucketHit {
		sc.bucketHit[b] = 0
	}
	return best
}
