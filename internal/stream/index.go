package stream

import (
	"math"
	"math/bits"
	"slices"
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
//   - Tier 1 — flat postings. Surviving buckets are probed through one
//     token-keyed table of chunk-chain offsets over one flat chunk slab
//     (no map[int][]posting: no per-token list headers, cache-line sized
//     chunks). Chunks are bucket-homogeneous so the walk tests the
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
// descending) so the running bound tightens as early as possible, each
// within the bit cap is re-tested against the bit-parallel exact-distance
// bound, and only the remainder runs the exact alignment. Every tier
// preserves the scan verdict exactly; see match for the tie-handling that
// keeps the lowest-index winner semantics under reordering.
const (
	// numBuckets caps the ⌈lg constants⌉ bucketing; templates with 2^18+
	// constant tokens share the last bucket.
	numBuckets = 20
	// satThreshold is the postings-chain length beyond which a token is
	// saturated into the overlap credit (tier 2).
	satThreshold = 64
	// chunkEntries sizes postingChunk to one 64-byte cache line.
	chunkEntries = 7

	noHead = -1 // end of a chunk chain
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
// admissible — merely looser until a compaction rebuilds the bucket).
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

// postingStore holds every posting in one flat chunk slab, reached
// through an open-addressing table keyed by token id — the tier-1
// replacement for map[int][]posting. The table holds only tokens that a
// registered template carries, so its size follows the template set, not
// the vocabulary: on an unbounded stream every slot filler and noise word
// is a new token, and a table indexed by token id would span all of them.
// Appends happen at registration only; probes are read-only, so
// concurrent AddBatch workers share the store without synchronization.
//
// The table probes linearly from a multiplicative hash of the key and
// doubles before its load passes 1/2. slots is what the probe reads: 8
// bytes a slot, enough to skip or credit a token. chains runs parallel to
// it and is read only for a chain the probe walks or registration
// extends.
type postingStore struct {
	slots  []tokSlot
	chains []tokChain
	used   int   // occupied slots
	shift  uint8 // 32 − lg len(slots): home keeps the hash's top bits
	chunks []postingChunk
}

// tokSlot is one hot table slot: key is tok+1 (0 marks an empty slot),
// and bits packs the token's state into one word.
//
//   - Bits below numBuckets are the token → bucket-set bitmap: bit b is
//     set when the token's chain holds at least one chunk in bucket b. A
//     probe ANDs bits with the tier-0 live-bucket mask to decide in one
//     word test whether walking the chain can contribute anything — the
//     rare-token bitmap skip.
//   - Bits from countShift up count the token's postings, which trigger
//     saturation.
//   - satBit marks a saturated token, and then it is the only bit set:
//     the chain is dead and the token's contribution moves to the
//     overlap credit.
type tokSlot struct {
	key  uint32
	bits uint32
}

const (
	countShift = 24
	satBit     = 1 << 31
	countOne   = 1 << countShift
)

// The bucket bits stay below the count, and a count up to satThreshold
// stays below satBit.
const (
	_ uint = countShift - numBuckets
	_ uint = 1<<(31-countShift) - 1 - satThreshold
)

// tokChain is a token's chain head and tail chunk offsets, both noHead
// once the token is saturated.
type tokChain struct {
	head, tail int32
}

// home is key's first probe slot: Fibonacci hashing, which spreads the
// dense, sequential ids a vocabulary hands out over the whole table.
func (ps *postingStore) home(key uint32) uint32 {
	return key * 0x9e3779b9 >> ps.shift
}

// find returns tok's slot, or -1 when no registered template carries
// tok. Ids past the 32-bit key space are misses too: no vocabulary id
// reaches them, only probeSeq's sentinels at a full vocabulary.
func (ps *postingStore) find(tok int) int {
	if len(ps.slots) == 0 || uint(tok) >= math.MaxUint32 {
		return -1
	}
	key := uint32(tok + 1)
	mask := uint32(len(ps.slots) - 1)
	for i := ps.home(key); ; i = (i + 1) & mask {
		switch ps.slots[i].key {
		case key:
			return int(i)
		case 0:
			return -1
		}
	}
}

// slot returns tok's slot, claiming one with an empty chain when tok is
// new. tok must be a vocabulary id (at most 2³²−2).
func (ps *postingStore) slot(tok int) int {
	if i := ps.find(tok); i >= 0 {
		return i
	}
	if 2*(ps.used+1) > len(ps.slots) {
		ps.grow(max(8, 2*len(ps.slots)))
	}
	i := ps.place(uint32(tok + 1))
	ps.chains[i] = tokChain{head: noHead, tail: noHead}
	ps.used++
	return int(i)
}

// reserve sizes the table for n more tokens, so a bulk registration
// does not double it step by step.
func (ps *postingStore) reserve(n int) {
	size := max(8, len(ps.slots))
	for size < 2*(ps.used+n) {
		size *= 2
	}
	if size > len(ps.slots) {
		ps.grow(size)
	}
}

// place claims the first empty slot of key's probe run for key.
func (ps *postingStore) place(key uint32) uint32 {
	mask := uint32(len(ps.slots) - 1)
	i := ps.home(key)
	for ps.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	ps.slots[i] = tokSlot{key: key}
	return i
}

// grow re-places every entry into fresh tables of size slots, a power
// of two.
func (ps *postingStore) grow(size int) {
	oldSlots, oldChains := ps.slots, ps.chains
	ps.slots = make([]tokSlot, size)
	ps.chains = make([]tokChain, size)
	ps.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for j, s := range oldSlots {
		if s.key == 0 {
			continue
		}
		i := ps.place(s.key)
		ps.slots[i].bits = s.bits
		ps.chains[i] = oldChains[j]
	}
}

// add appends one posting, saturating the token once its chain would
// exceed satThreshold (the chain is abandoned in place; orphaned chunks
// cost memory, not probe time).
func (ps *postingStore) add(ti, bucket, tok, count int) {
	i := ps.slot(tok)
	s, c := &ps.slots[i], &ps.chains[i]
	if s.bits&satBit != 0 {
		return
	}
	if s.bits>>countShift >= satThreshold {
		s.bits = satBit
		c.head, c.tail = noHead, noHead
		return
	}
	s.bits = (s.bits + countOne) | 1<<uint(bucket)
	ci := c.tail
	if ci == noHead || int(ps.chunks[ci].n) == chunkEntries || ps.chunks[ci].bucket != int16(bucket) {
		ps.chunks = append(ps.chunks, postingChunk{next: noHead, bucket: int16(bucket)})
		ni := int32(len(ps.chunks) - 1)
		if ci == noHead {
			c.head = ni
		} else {
			ps.chunks[ci].next = ni
		}
		c.tail = ni
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
// reg* slices are the pooled registration scratch, each as long as one
// template: its constant (token, position) pairs, and the distinct tokens
// and position masks of its bit-parallel table. Registering a template —
// the Load hot loop at 100k templates — allocates nothing in steady
// state.
type tmplIndex struct {
	meta    []tmplMeta
	buckets [numBuckets]bucketInfo
	store   postingStore
	eqTokA  arena[int32]
	eqMaskA arena[uint64]

	regPairs []uint64
	regToks  []int32
	regMasks []uint64
}

// add registers template ti's constant-token multiset, mask table, slot
// count, and bucket membership. Wild positions are excluded from
// postings: a slot's consensus token is matching decoration, not a
// constant the document must supply. The constants are sorted as
// tok<<32 | position pairs — unsigned, so every id up to the
// vocabulary's 2³²−2 limit sorts by value — and each run of one token
// yields its count and its position mask, in ascending token order.
func (ix *tmplIndex) add(ti int, tokens []int, wild []bool) {
	refLen := len(tokens)
	useBits := refLen <= align.WildBitCap
	pairs := ix.regPairs[:0]
	var wildMask uint64
	for i, tok := range tokens {
		if !wild[i] {
			pairs = append(pairs, uint64(tok)<<32|uint64(i))
		} else if useBits {
			wildMask |= 1 << uint(i)
		}
	}
	slices.Sort(pairs)
	ix.regPairs = pairs

	constCnt := len(pairs)
	slots := refLen - constCnt
	b := bucketOf(constCnt)
	mt := tmplMeta{
		refLen:   int32(refLen),
		constCnt: int32(constCnt),
		slots:    int32(slots),
		bucket:   int16(b),
		wildMask: wildMask,
	}
	toks, masks := ix.regToks[:0], ix.regMasks[:0]
	for lo := 0; lo < len(pairs); {
		tok := pairs[lo] >> 32
		var mask uint64
		hi := lo
		for ; hi < len(pairs) && pairs[hi]>>32 == tok; hi++ {
			mask |= 1 << (pairs[hi] & 63) // read only when useBits: positions < 64
		}
		ix.store.add(ti, b, int(tok), hi-lo)
		if useBits {
			toks = append(toks, int32(tok))
			masks = append(masks, mask)
		}
		lo = hi
	}
	ix.regToks, ix.regMasks = toks, masks
	if useBits {
		mt.eqToks = ix.eqTokA.copyIn(toks)
		mt.eqMasks = ix.eqMaskA.copyIn(masks)
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
// stay aligned when restore registers a template set that holds retired
// templates: the slot joins no bucket and no postings chain, so probes
// can never surface it.
func (ix *tmplIndex) addDead() {
	ix.meta = append(ix.meta, tmplMeta{bucket: -1})
}

// Stats counts the detector's work since it was created — the streaming
// analogue of Result.Timings()'s stage breakdown: the matcher's probes
// and pruning (MatchStats) and the mining passes with their lifecycle
// retirements (MineStats). The JSON tags are the /v1/stats field names.
// Every counter except the matcher's wall-clock timings is a pure
// per-document function, identical for any Options.Workers. The struct
// stays ==-comparable (fixed-size histogram) — tests rely on it.
type Stats struct {
	MatchStats
	MineStats
}

// MatchStats counts the serving path's matching work. DPPruned /
// Candidates is the DP-skip rate; Examined / Probes is the mean
// surviving-candidate set the tiered index hands to the bounded scan.
// Operators watch both because index pruning degrades — skip rate falls,
// CandHist mass drifts toward high buckets — before mean latency shows
// it.
type MatchStats struct {
	// Probes counts documents tested against a non-empty template set.
	Probes int `json:"probes"`
	// Candidates counts template candidates considered across all probes
	// (Σ per-probe template-set size).
	Candidates int `json:"candidates"`
	// Examined counts candidates that survived the tiered index (bucket
	// skip + untouched mass-prune) and reached the per-template bound.
	Examined int `json:"examined"`
	// DPRuns counts full wildcard-alignment DPs executed.
	DPRuns int `json:"dp_runs"`
	// DPPruned counts candidates resolved without the full DP: skipped
	// buckets, mass-pruned untouched templates, and per-candidate bound
	// rejections (including the bit-parallel refinements).
	DPPruned int `json:"dp_pruned"`
	// BitDPRuns counts bit-parallel exact-distance evaluations.
	BitDPRuns int `json:"bitdp_runs"`
	// BitDPPruned counts candidates the exact-distance bound rejected
	// after the overlap bound had passed them (a subset of DPPruned).
	BitDPPruned int `json:"bitdp_pruned"`
	// BandRuns counts exact alignments routed through the banded DP
	// (references within the bit cap, seeded by the bit-parallel
	// distance); always ≤ DPRuns. BandRetries counts band widenings —
	// zero whenever the seed distance is exact, so any nonzero value is a
	// bug signal, not a tuning knob.
	BandRuns    int `json:"band_runs"`
	BandRetries int `json:"band_retries"`
	// BitmapSkips counts probes whose tokens touched no live bucket (the
	// token → bucket-set bitmap proved the whole postings walk useless);
	// PostingsWalks counts probes that walked at least one chain. On the
	// pruned path BitmapSkips + PostingsWalks == Probes.
	BitmapSkips   int `json:"bitmap_skips"`
	PostingsWalks int `json:"postings_walks"`
	// WalkNs / BoundNs / BitDPNs / ExactDPNs attribute pruned-path
	// wall-clock to the matcher's stages: tier-0 + postings walk +
	// candidate assembly, the batched bound loop, the bit-parallel
	// distance refinements (scan time minus exact DPs), and the exact
	// alignments. Unlike every other field they are wall-clock — NOT a
	// pure per-document function — so cross-worker equivalence checks
	// must compare through Counters(), which zeroes them.
	WalkNs    int64 `json:"walk_ns"`
	BoundNs   int64 `json:"bound_ns"`
	BitDPNs   int64 `json:"bitdp_ns"`
	ExactDPNs int64 `json:"exactdp_ns"`
	// CandHist is the log2 histogram of per-probe Examined sizes: bucket
	// k counts probes with ⌈lg(n+1)⌉ = k surviving candidates (bucket 0
	// is exactly zero candidates).
	CandHist [CandHistBuckets]int `json:"cand_per_probe_hist_log2"`
}

// Add folds o's counters into s.
func (s *MatchStats) Add(o MatchStats) {
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
	for i := range s.CandHist {
		s.CandHist[i] += o.CandHist[i]
	}
}

// MineStats counts mining passes and template lifecycle activity. With
// the lifecycle disabled only Flushes, FlushDocs and Mined move.
type MineStats struct {
	// Flushes counts mining passes; FlushDocs the pending documents they
	// consumed (Σ per-flush buffer size).
	Flushes   int `json:"flushes"`
	FlushDocs int `json:"flush_docs"`
	// Mined counts templates accepted by mining passes; Merged / Evicted
	// / AgedOut count lifecycle retirements by cause (MDL merge, cap
	// eviction, TTL age-out). Live templates = Mined + registrations −
	// the three retirement counters.
	Mined   int `json:"mined"`
	Merged  int `json:"merged"`
	Evicted int `json:"evicted"`
	AgedOut int `json:"aged_out"`
	// MineReused counts retained documents the incremental miner
	// re-clustered from its cross-flush window without re-extracting
	// their phrases; MineClustered counts all documents handed to the
	// clustering stage across incremental flushes (reused + new). Their
	// ratio is the incremental-coarse reuse rate; re-clustering the whole
	// window would count every retained document every flush.
	MineReused    int `json:"mine_reused"`
	MineClustered int `json:"mine_clustered"`
	// VocabCompactions counts lifecycle vocabulary compactions;
	// VocabDropped the words they dropped, so words interned = the
	// vocabulary size + VocabDropped.
	VocabCompactions int `json:"vocab_compactions"`
	VocabDropped     int `json:"vocab_dropped"`
}

// Add folds o's counters into s.
func (s *MineStats) Add(o MineStats) {
	s.Flushes += o.Flushes
	s.FlushDocs += o.FlushDocs
	s.Mined += o.Mined
	s.Merged += o.Merged
	s.Evicted += o.Evicted
	s.AgedOut += o.AgedOut
	s.MineReused += o.MineReused
	s.MineClustered += o.MineClustered
	s.VocabCompactions += o.VocabCompactions
	s.VocabDropped += o.VocabDropped
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
	stats     MatchStats
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
func (d *Detector) match(toks []int, vocabSize int, sc *matchScratch, st *MatchStats) int {
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
	store := &ix.store
	slotTab, chains, chunks := store.slots, store.chains, store.chunks
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi] == sorted[lo] {
			hi++
		}
		dc := hi - lo
		i := store.find(sorted[lo])
		lo = hi
		if i < 0 {
			continue
		}
		if bits := slotTab[i].bits; bits&liveMask == 0 {
			// No live chunk anywhere in the chain: only the saturation
			// credit (if any) survives of what the walk would have done.
			if bits&satBit != 0 {
				credit += dc
			}
			continue
		}
		walked = true
		for ci := chains[i].head; ci != noHead; ci = chunks[ci].next {
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
		// Exact branch, one for every template length. A reference within
		// the bit cap first sharpens its bound with the exact unit-cost
		// distance in O(m) word ops, and that distance seeds a band that
		// shrinks the alignment to O(n·dist) (see align.PairwiseWildBanded).
		// A longer reference has no distance, so its seed of max(n, m) runs
		// the full fill. Either way the cost is the full DP's, bit-exact.
		refLen, slots := int(cRef[ii]), int(cSlots[ii])
		dist := max(refLen, m)
		if refLen <= align.WildBitCap {
			mt := &ix.meta[x]
			dist = align.WildDistanceMasked(refLen, mt.wildMask, mt.eqToks, mt.eqMasks, toks)
			st.BitDPRuns++
			if !canWin(bounder.DistBound(refLen, dist, slots), x) {
				pruned++
				st.BitDPPruned++
				continue
			}
			st.BandRuns++
		}
		st.DPRuns++
		t := &d.templates[x]
		dpStart := time.Now()
		cost, retries := bounder.Cost(t.Tokens, t.Wild, toks, dist, slots, &sc.wild)
		exactNs += time.Since(dpStart).Nanoseconds()
		st.BandRetries += retries
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
