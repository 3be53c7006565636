package stream

import (
	"cmp"
	"math"
	"slices"

	"infoshield/internal/core"
	"infoshield/internal/tfidf"
)

// The incremental miner replaces the from-scratch batch pipeline on
// Flush when Lifecycle.Incremental is set. Instead of re-running
// coarse+fine over an ever-growing buffer, it keeps cross-flush state —
// a document-frequency table and a bounded window of recent unmatched
// documents — and per flush only:
//
//  1. extracts phrases for the *new* pending documents (the tokens were
//     already encoded at ingest; nothing is re-tokenized),
//  2. selects their top phrases against the window-wide DF table,
//  3. re-clusters only the documents whose selections share a phrase
//     with a new document (plus the new documents themselves), and
//  4. hands those components to the same fine pass (core.Refine) the
//     batch pipeline uses.
//
// Amortized flush cost is proportional to the batch, not the history,
// and campaigns that trickle in below BatchSize per flush still
// assemble: their early members wait in the window and join the
// component the moment a later flush re-touches their phrases —
// upgrading their noise verdicts, which the batch path would have
// frozen at -1.
//
// The flush path runs on flat tables, not Go maps. The window DF table is
// a hashTable: dense []uint64 keys and []int32 counts, linear probing,
// count 0 marking an empty slot, doubling once half full. When a count
// drops to zero the entry is removed by backward shift — later members of
// its probe run move back into the hole — so the table never holds
// tombstones and never needs a rebuild, and its size stays bounded by the
// retained window. Each document's 1..MaxN-grams are deduped through the
// tf-idf kernel's reusable table (tfidf.PhraseTable); the phrase,
// candidate, covered and selection buffers are reused across flushes; and
// the flush's selected phrases (first the set touched by new documents,
// then each phrase's union-find owner) live in a second hashTable,
// cleared per flush.
//
// Three deliberate simplifications versus the batch coarse pass, all
// deterministic. Across documents, phrase identity is the 64-bit mixed
// rolling hash: the DF table keys on the hash alone, so a collision
// merges two phrases instead of chaining — across a bounded window the
// probability is negligible, and a merge only over-connects a component,
// never corrupts state. Within one document the dedupe compares tokens,
// so two different n-grams there that share all 64 hash bits stay two
// phrases with one hash (both counted, both selectable). Component growth
// always uses the permissive single-shared-phrase rule
// (Options.MinSharedPhrases is a batch-pipeline ablation knob), and score
// ties break by (position, length, hash) instead of the batch extractor's
// lexicographic token order. Incremental mining is therefore equivalent
// in mechanism, not byte-identical in output, to the batch path — the
// byte-identity gate covers the default (non-incremental) configuration.

// The retained window's bounds: an unmatched document leaves it after
// retainFlushes mining passes, and the window keeps at most
// retainBatches×BatchSize documents, dropping the oldest first.
const (
	retainFlushes = 8
	retainBatches = 8
)

// mineDoc is one unmatched document retained in the miner's window.
type mineDoc struct {
	id    int      // caller-visible document id
	toks  []int    // detector-vocab token ids (owned; encoded at ingest)
	dist  []uint64 // distinct phrase hashes — the doc's DF contributions
	sel   []uint64 // selected top-phrase hashes
	epoch int      // flush epoch of arrival (age = current epoch − epoch)
}

// mineState is the cross-flush miner state.
type mineState struct {
	// df counts, per phrase hash, the window documents containing the
	// phrase. Invariant: df is exactly the multiset union of docs[i].dist
	// plus, transiently inside a flush, the new batch's contributions —
	// every document that leaves the window (matched, aged, capped)
	// decrements its dist from df.
	df    hashTable
	docs  []mineDoc // retained unmatched docs, ascending id
	epoch int

	// Scratch reused across flushes (and by Load).
	tab     tfidf.PhraseTable
	phr     []tfidf.Phrase // the extracted documents' phrases, flat
	bounds  []int32        // document i owns phr[bounds[i]:bounds[i+1]]
	cand    []mineCand
	covered []bool
	sel     []uint64         // this flush's selections, flat
	ids     []tfidf.PhraseID // core.Refine's top phrases, flat
	owner   hashTable        // selected phrase → document (see flushIncremental)
}

// hashTable is a dense open-addressing table from a 64-bit phrase hash to
// a nonzero int32 (linear probing; value 0 marks an empty slot). It stays
// at most half full, doubling as it grows, and dec deletes by backward
// shift, so lookups never step over tombstones.
type hashTable struct {
	keys []uint64
	vals []int32
	n    int // occupied slots
}

// slot returns the slot holding key, or the empty slot where it belongs.
func (t *hashTable) slot(key uint64) uint64 {
	mask := uint64(len(t.keys) - 1)
	i := key & mask
	for t.vals[i] != 0 && t.keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// get returns the value under key, or 0 for an absent key.
func (t *hashTable) get(key uint64) int32 {
	if t.n == 0 {
		return 0
	}
	return t.vals[t.slot(key)]
}

// reserve grows the table if one more key would fill over half of it.
func (t *hashTable) reserve() {
	if 2*(t.n+1) <= len(t.keys) {
		return
	}
	keys, vals := t.keys, t.vals
	size := max(16, 2*len(keys))
	t.keys, t.vals = make([]uint64, size), make([]int32, size)
	for i, v := range vals {
		if v != 0 {
			j := t.slot(keys[i])
			t.keys[j], t.vals[j] = keys[i], v
		}
	}
}

// inc adds one to key's count.
func (t *hashTable) inc(key uint64) {
	t.reserve()
	i := t.slot(key)
	if t.vals[i] == 0 {
		t.keys[i] = key
		t.n++
	}
	t.vals[i]++
}

// dec subtracts one from key's count, which must be positive. A count
// that reaches zero leaves the table: each later entry of the probe run
// whose home slot is not cyclically within (hole, entry] moves back into
// the hole, which then continues from the moved entry's slot, until an
// empty slot ends the run.
func (t *hashTable) dec(key uint64) {
	var i uint64
	if t.n > 0 {
		i = t.slot(key)
	}
	if t.n == 0 || t.vals[i] == 0 {
		panic("stream: window DF decrement of an uncounted phrase")
	}
	if t.vals[i]--; t.vals[i] > 0 {
		return
	}
	t.n--
	mask := uint64(len(t.keys) - 1)
	for j := (i + 1) & mask; t.vals[j] != 0; j = (j + 1) & mask {
		if home := t.keys[j] & mask; (j-home)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.vals[i] = 0
}

// insert stores v (nonzero) under key and returns 0 if key is absent;
// otherwise it leaves the table unchanged and returns key's value.
func (t *hashTable) insert(key uint64, v int32) int32 {
	t.reserve()
	i := t.slot(key)
	if old := t.vals[i]; old != 0 {
		return old
	}
	t.keys[i], t.vals[i] = key, v
	t.n++
	return 0
}

// reset empties the table, keeping its size.
func (t *hashTable) reset() {
	clear(t.vals)
	t.n = 0
}

func (ms *mineState) decDF(dist []uint64) {
	for _, h := range dist {
		ms.df.dec(h)
	}
}

// extract fills phr and bounds with each document's distinct phrases and
// counts them into the DF table.
func (ms *mineState) extract(docs [][]int, maxN int) {
	ms.phr = ms.phr[:0]
	ms.bounds = append(ms.bounds[:0], 0)
	for _, toks := range docs {
		ms.phr = ms.tab.AppendDoc(ms.phr, toks, maxN)
		ms.bounds = append(ms.bounds, int32(len(ms.phr)))
	}
	for i := range ms.phr {
		ms.df.inc(ms.phr[i].Hash)
	}
}

// phrases returns document i's phrases from the last extract.
func (ms *mineState) phrases(i int) []tfidf.Phrase {
	return ms.phr[ms.bounds[i]:ms.bounds[i+1]]
}

// mineCand is one scored phrase of one document during selection.
type mineCand struct {
	score, idf float64
	pos, n     int32
	hash       uint64
}

// selectTop appends a document's top phrases to sel and returns the
// extended slice, mirroring the batch extractor's selection dynamics
// against the window DF table: budget is ⌈frac·distinct⌉ (min 1),
// zero-score phrases (df = N) are excluded, an idf floor at floorFrac of
// the document's best keeps quota-filler phrases out, and positional
// diversity admits a phrase only when its first occurrence covers no
// already-covered token. Below-floor phrases are dropped before the sort;
// (score desc, pos, n, hash) is a total order over one document's
// phrases, so the survivors keep the order the greedy scan sees.
func (ms *mineState) selectTop(sel []uint64, phrases []tfidf.Phrase, nDocs, docLen int, frac, floorFrac float64) []uint64 {
	cand := ms.cand[:0]
	maxIdf := 0.0
	for i := range phrases {
		p := &phrases[i]
		d := ms.df.get(p.Hash)
		if d <= 0 {
			continue
		}
		idf := math.Log(float64(nDocs) / float64(d))
		score := float64(p.TF) * idf
		if score <= 0 {
			continue
		}
		maxIdf = max(maxIdf, idf)
		cand = append(cand, mineCand{score, idf, p.Pos, p.N, p.Hash})
	}
	ms.cand = cand
	floor := maxIdf * floorFrac
	kept := cand[:0]
	for _, c := range cand {
		if c.idf >= floor {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return sel
	}
	slices.SortFunc(kept, func(a, b mineCand) int {
		return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(a.pos, b.pos),
			cmp.Compare(a.n, b.n), cmp.Compare(a.hash, b.hash))
	})
	k := max(1, int(math.Ceil(frac*float64(len(phrases)))))
	if cap(ms.covered) < docLen {
		ms.covered = make([]bool, docLen)
	}
	covered := ms.covered[:docLen]
	clear(covered)
	start := len(sel)
	for _, c := range kept {
		if len(sel)-start >= k {
			break
		}
		span := covered[c.pos : c.pos+c.n]
		if slices.Contains(span, true) {
			continue
		}
		for p := range span {
			span[p] = true
		}
		sel = append(sel, c.hash)
	}
	return sel
}

func (d *Detector) mineMaxN() int {
	if d.Options.MaxNgram > 0 {
		return d.Options.MaxNgram
	}
	return tfidf.DefaultMaxN
}

func (d *Detector) mineTopFraction() float64 {
	if d.Options.TopFraction > 0 {
		return d.Options.TopFraction
	}
	return tfidf.DefaultTopFraction
}

// retain appends extracted document i to the window with selection sel.
// Its dist and sel are copied into the front of slab, which must have
// room; the rest of slab is returned.
func (ms *mineState) retain(slab []uint64, i, id int, toks []int, sel []uint64, epoch int) []uint64 {
	ps := ms.phrases(i)
	dist := slab[:len(ps):len(ps)]
	for j := range ps {
		dist[j] = ps[j].Hash
	}
	slab = slab[len(ps):]
	kept := slab[:len(sel):len(sel)]
	copy(kept, sel)
	ms.docs = append(ms.docs, mineDoc{id: id, toks: toks, dist: dist, sel: kept, epoch: epoch})
	return slab[len(sel):]
}

// setDocs replaces the window with keep, a prefix of its own backing
// array, dropping the references the array's tail still holds.
func (ms *mineState) setDocs(keep []mineDoc) {
	clear(ms.docs[len(keep):])
	ms.docs = keep
}

// root returns x's union-find root, halving the path on the way.
func root(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// flushIncremental is the incremental mining pass; see the package
// comment above for the shape. It returns the newly registered template
// indices for the lifecycle pass.
func (d *Detector) flushIncremental() []int {
	if d.mine == nil {
		d.mine = &mineState{}
	}
	ms := d.mine
	ms.epoch++

	// Age out, then cap, the retained window (oldest-first — docs is in
	// ascending id order, which is arrival order).
	keep := ms.docs[:0]
	for i := range ms.docs {
		if ms.epoch-ms.docs[i].epoch > retainFlushes {
			ms.decDF(ms.docs[i].dist)
			continue
		}
		keep = append(keep, ms.docs[i])
	}
	if over := len(keep) - retainBatches*d.batchSize(); over > 0 {
		for i := 0; i < over; i++ {
			ms.decDF(keep[i].dist)
		}
		keep = keep[:copy(keep, keep[over:])]
	}
	ms.setDocs(keep)

	// Extract the new batch's phrases and fold them into the DF table
	// before selection, so new near-duplicates see each other's df. The
	// owner table first records the phrases the new documents select —
	// the touched set — under -(i+1) for pending document i.
	maxN := d.mineMaxN()
	ms.extract(d.pendingToks, maxN)
	nWindow := len(ms.docs) + len(d.pendingToks)
	frac, floorFrac := d.mineTopFraction(), tfidf.DefaultRelativeFloor
	ms.sel = ms.sel[:0]
	ms.owner.reset()
	newSel := make([][]uint64, len(d.pendingToks))
	for i, toks := range d.pendingToks {
		start := len(ms.sel)
		ms.sel = ms.selectTop(ms.sel, ms.phrases(i), nWindow, len(toks), frac, floorFrac)
		newSel[i] = ms.sel[start:len(ms.sel):len(ms.sel)]
		for _, h := range newSel[i] {
			ms.owner.insert(h, int32(-i-1))
		}
	}

	// Candidate set: retained docs whose selections intersect the new
	// batch's (the touched components), then the new docs — ascending id
	// within each group, groups in id order since retained ids precede
	// pending ids.
	var candIdx []int // retained candidates' positions in ms.docs
	var localToks [][]int
	var localSel [][]uint64
	var localIDs []int
	for i := range ms.docs {
		doc := &ms.docs[i]
		if !slices.ContainsFunc(doc.sel, func(h uint64) bool { return ms.owner.get(h) != 0 }) {
			continue
		}
		candIdx = append(candIdx, i)
		localToks = append(localToks, doc.toks)
		localSel = append(localSel, doc.sel)
		localIDs = append(localIDs, doc.id)
	}
	reused := len(candIdx)
	newBase := len(localIDs)
	localToks = append(localToks, d.pendingToks...)
	localSel = append(localSel, newSel...)
	localIDs = append(localIDs, d.pendingIDs...)
	d.stats.MineReused += reused
	d.stats.MineClustered += len(localIDs)

	// Components over the shared-phrase graph: union-find, joining each
	// document to its phrases' owners (the first local document holding
	// the phrase, or a new document recorded above — any holder yields
	// the same components). The larger root always hangs under the
	// smaller, so a component's root is its least member.
	nLocal := len(localIDs)
	parent := make([]int32, nLocal)
	for l := range parent {
		parent[l] = int32(l)
	}
	for l, sel := range localSel {
		for _, h := range sel {
			var o int32
			switch v := ms.owner.insert(h, int32(l+1)); {
			case v == 0:
				continue
			case v > 0:
				o = v - 1
			default: // v = -(i+1) for pending document i
				o = int32(newBase) - v - 1
			}
			ra, rb := root(parent, o), root(parent, int32(l))
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	// Components of ≥ 2 members in least-member order, members ascending:
	// count at each root, turn the counts into offsets (-1 for roots of
	// singletons and non-roots), then place the documents.
	pos := make([]int32, nLocal)
	for l := range parent {
		parent[l] = root(parent, int32(l))
		pos[parent[l]]++
	}
	members := make([]int, nLocal)
	var coarse [][]int
	off := int32(0)
	for r, c := range pos {
		if c < 2 {
			pos[r] = -1
			continue
		}
		coarse = append(coarse, members[off:off+c:off+c])
		pos[r] = off
		off += c
	}
	for l, r := range parent {
		if o := pos[r]; o >= 0 {
			members[o] = l
			pos[r]++
		}
	}

	// Fine pass: same MDL mining as the batch pipeline, over detector-
	// vocab tokens, so accepted templates register without re-encoding.
	// Refine reads the top phrases of component members only.
	topLocal := make([][]tfidf.PhraseID, nLocal)
	ms.ids = ms.ids[:0]
	for _, l := range members[:off] {
		start := len(ms.ids)
		for _, h := range localSel[l] {
			ms.ids = append(ms.ids, tfidf.PhraseID{Hash: h})
		}
		topLocal[l] = ms.ids[start:len(ms.ids):len(ms.ids)]
	}
	refined, _ := core.Refine(coarse, localToks, topLocal, d.vocab.Size(), d.Options)

	matched := make([]bool, nLocal)
	var newTIs []int
	for ci := range refined {
		for _, tr := range refined[ci] {
			tokens := make([]int, tr.Template.Len())
			wild := make([]bool, tr.Template.Len())
			for i, tid := range tr.Template.TokenIDs {
				if tr.Template.IsSlot[i] {
					wild[i] = true
					if tid >= 0 {
						tokens[i] = tid
					}
					continue
				}
				tokens[i] = tid
			}
			ti := len(d.templates)
			d.register(Template{
				Wild:     wild,
				Tokens:   tokens,
				DocCount: len(tr.Docs),
			})
			d.stats.Mined++
			newTIs = append(newTIs, ti)
			for _, l := range tr.Docs {
				d.verdicts[localIDs[l]] = int32(ti)
				matched[l] = true
			}
		}
	}

	// Matched documents leave the window (with their DF contributions);
	// unmatched new documents join it, their dist and sel copied into one
	// slab per flush. candIdx ascends, so one walk pairs it with docs.
	keep, k := ms.docs[:0], 0
	for i := range ms.docs {
		if k < reused && candIdx[k] == i {
			k++
			if matched[k-1] {
				ms.decDF(ms.docs[i].dist)
				continue
			}
		}
		keep = append(keep, ms.docs[i])
	}
	ms.setDocs(keep)
	size := 0
	for i := range d.pendingToks {
		if !matched[newBase+i] {
			size += len(ms.phrases(i)) + len(newSel[i])
		}
	}
	slab := make([]uint64, size)
	for i := range d.pendingToks {
		if matched[newBase+i] {
			for _, p := range ms.phrases(i) {
				ms.df.dec(p.Hash)
			}
			continue
		}
		slab = ms.retain(slab, i, d.pendingIDs[i], d.pendingToks[i], newSel[i], ms.epoch)
	}
	return newTIs
}
