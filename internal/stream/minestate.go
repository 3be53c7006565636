package stream

import (
	"slices"

	"infoshield/internal/core"
	"infoshield/internal/tfidf"
	"infoshield/internal/tokenize"
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
// The flush path runs on the tf-idf kernel's phrase substrate, the same
// one batch Coarse uses, and holds no Go map. Each document's
// 1..MaxN-grams are deduped through tfidf.Phrases; the window DF table is
// a tfidf.HashTable, whose zero-count entries leave by backward shift, so
// the table never holds tombstones and its size stays bounded by the
// retained window; and selection is the batch extractor's own rule
// (tfidf.Selector: budget, idf floor, positional diversity and the
// lexicographic tie-break) against the window DF. The flush's selected
// phrases (first the set touched by new documents, then each phrase's
// union-find owner) live in a second HashTable, cleared per flush.
//
// Two deliberate differences from the batch coarse pass remain, both
// deterministic. Component growth always uses the permissive
// single-shared-phrase rule (Options.MinSharedPhrases is a
// batch-pipeline ablation knob), and idf is computed over the retained
// window rather than the whole history. Incremental mining is therefore
// equivalent in mechanism, not byte-identical in output, to the batch
// path — the byte-identity gate covers the default (non-incremental)
// configuration. Over an empty window, a flush selects exactly the
// phrases TopPhraseIDs selects (TestMinerSelectionMatchesBatch).

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
	df    tfidf.HashTable
	docs  []mineDoc // retained unmatched docs, ascending id
	epoch int

	// Scratch reused across flushes (and by Load).
	phr   tfidf.Phrases    // the admitted documents' phrases
	pick  tfidf.Selector   // the selection rule's scratch
	sel   []tfidf.PhraseID // the admitted documents' selections, flat
	owner tfidf.HashTable  // selected phrase → document (see flushIncremental)
}

func (ms *mineState) decDF(dist []uint64) {
	for _, h := range dist {
		ms.df.Dec(h)
	}
}

// admit extracts docs' phrases, counts them into the window DF table, and
// selects each document's top phrases against a window of n documents
// (docs included). Row i of the result is document i's selection; the
// rows share ms.sel's storage.
func (ms *mineState) admit(docs [][]int, n int, ex *tfidf.Extractor, vocab *tokenize.Vocab) [][]tfidf.PhraseID {
	ms.phr.Extract(docs, ex.MaxNgram())
	for _, p := range ms.phr.All() {
		ms.df.Inc(p.Hash)
	}
	ms.pick.Reset(ex, n)
	ms.sel = ms.sel[:0]
	sels := make([][]tfidf.PhraseID, len(docs))
	for i, toks := range docs {
		start := len(ms.sel)
		ms.sel = ms.pick.Select(ms.sel, ms.phr.Doc(i), toks, vocab, &ms.df)
		sels[i] = ms.sel[start:len(ms.sel):len(ms.sel)]
	}
	return sels
}

// mineExtractor is the phrase extractor configured by the detector's
// options, as the batch pipeline configures its own.
func (d *Detector) mineExtractor() *tfidf.Extractor {
	return &tfidf.Extractor{MaxN: d.Options.MaxNgram, TopFraction: d.Options.TopFraction}
}

// retain appends admitted document i to the window with selection sel.
// Its dist and sel are copied into the front of slab, which must have
// room; the rest of slab is returned.
func (ms *mineState) retain(slab []uint64, i, id int, toks []int, sel []uint64, epoch int) []uint64 {
	ps := ms.phr.Doc(i)
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

	// Admit the new batch: its phrases join the DF table before
	// selection, so new near-duplicates see each other's df. The owner
	// table first records the phrases the new documents select — the
	// touched set — under -(i+1) for pending document i.
	newSel := ms.admit(d.pendingToks, len(ms.docs)+len(d.pendingToks), d.mineExtractor(), d.vocab)
	ms.owner.Reset()
	for i, sel := range newSel {
		for _, h := range sel {
			ms.owner.Insert(h, int32(-i-1))
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
		if !slices.ContainsFunc(doc.sel, func(h uint64) bool { return ms.owner.Get(h) != 0 }) {
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
			switch v := ms.owner.Insert(h, int32(l+1)); {
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
	refined, _ := core.Refine(coarse, localToks, localSel, d.vocab.Size(), d.Options)

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
			size += len(ms.phr.Doc(i)) + len(newSel[i])
		}
	}
	slab := make([]uint64, size)
	for i := range d.pendingToks {
		if matched[newBase+i] {
			for _, p := range ms.phr.Doc(i) {
				ms.df.Dec(p.Hash)
			}
			continue
		}
		slab = ms.retain(slab, i, d.pendingIDs[i], d.pendingToks[i], newSel[i], ms.epoch)
	}
	return newTIs
}
