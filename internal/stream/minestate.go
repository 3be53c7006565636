package stream

import (
	"slices"

	"infoshield/internal/core"
	"infoshield/internal/tfidf"
)

// Every Flush runs one mining pass, the miner below. It keeps
// cross-flush state — a document-frequency table and a bounded window of
// recent unmatched documents — and per flush:
//
//  1. admits the new pending documents through tfidf's one admission
//     call (TopPhraseIDs): their phrases (from the tokens encoded at
//     ingest; nothing is re-tokenized) join the window DF table, and
//     each selects its top phrases against the window,
//  2. re-clusters only the retained documents whose selections share a
//     phrase with a new document, plus the new documents themselves, and
//  3. hands those components to the same fine pass (core.Refine) the
//     batch pipeline uses.
//
// Lifecycle.Incremental decides only whether unmatched documents stay in
// the window. With it on, flush cost is proportional to the batch, not
// the history, and campaigns that trickle in below BatchSize per flush
// still assemble: their early members wait in the window and join the
// component the moment a later flush re-touches their phrases —
// upgrading their noise verdicts. With it off, the pass empties the
// window and its DF table at its end, so each flush mines its buffer
// alone and an unmatched document's noise verdict is final.
//
// The window DF table is a tfidf.HashTable, whose zero-count entries
// leave by backward shift, so the table never holds tombstones and its
// size stays bounded by the retained window. The phrases the new
// documents select (the touched set) live in a second HashTable, which
// then serves as the anchor table of tfidf.Components — the components
// step batch Coarse runs too.
//
// Two deliberate differences from batch Detect over the same documents
// remain, both deterministic. Description lengths are priced at the
// detector's vocabulary size, the V the matcher uses, not the buffer's.
// And with Incremental on, idf is computed over the retained window as
// well as the buffer. Over an empty window, a flush selects exactly the
// phrases batch Coarse selects (TestMinerSelectionMatchesBatch).

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

	touched tfidf.HashTable // the new documents' selections, then Components' anchors
}

func (ms *mineState) decDF(dist []uint64) {
	for _, h := range dist {
		ms.df.Dec(h)
	}
}

// mineExtractor is the phrase extractor configured by the detector's
// options, as the batch pipeline configures its own.
func (d *Detector) mineExtractor() *tfidf.Extractor {
	return &tfidf.Extractor{MaxN: d.Options.MaxNgram, TopFraction: d.Options.TopFraction, Workers: d.Options.Workers}
}

// reset empties the window and its DF table, keeping their storage and
// the scratch, and restarts the flush epoch.
func (ms *mineState) reset() {
	ms.df.Reset()
	ms.setDocs(ms.docs[:0])
	ms.epoch = 0
}

// setDocs replaces the window with keep, a prefix of its own backing
// array, dropping the references the array's tail still holds.
func (ms *mineState) setDocs(keep []mineDoc) {
	clear(ms.docs[len(keep):])
	ms.docs = keep
}

// minePass is Flush's mining pass; see the comment at the top of this
// file for its shape. It returns the newly registered template indices
// for the lifecycle pass.
func (d *Detector) minePass() []int {
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
	// selection, so new near-duplicates see each other's df; then the
	// phrases the new documents select make up the touched set.
	adm := d.mineExtractor().TopPhraseIDs(d.pendingToks, d.vocab, &ms.df, len(ms.docs)+len(d.pendingToks))
	ms.touched.Reset()
	for _, sel := range adm.Top {
		for _, h := range sel {
			ms.touched.Insert(h, 1)
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
		if !slices.ContainsFunc(doc.sel, func(h uint64) bool { return ms.touched.Get(h) != 0 }) {
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
	localSel = append(localSel, adm.Top...)
	localIDs = append(localIDs, d.pendingIDs...)
	d.stats.MineReused += reused
	d.stats.MineClustered += len(localIDs)

	// Components of ≥ 2 members over the shared-phrase graph, as batch
	// Coarse builds them.
	coarse := tfidf.Components(localSel, 2, &ms.touched)

	// Fine pass: same MDL mining as the batch pipeline, over detector-
	// vocab tokens, so accepted templates register without re-encoding.
	refined, _ := core.Refine(coarse, localToks, localSel, d.vocab.Size(), d.Options)

	matched := make([]bool, len(localIDs))
	var newTIs []int
	for ci := range refined {
		for k := range refined[ci] {
			tr := &refined[ci][k]
			newTIs = d.registerMined(newTIs, tr, localIDs)
			for _, l := range tr.Docs {
				matched[l] = true
			}
		}
	}
	if !d.Lifecycle.Incremental {
		ms.reset()
		return newTIs
	}

	// Matched documents leave the window (with their DF contributions);
	// unmatched new documents join it. candIdx ascends, so one walk pairs
	// it with docs.
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
	for i, toks := range d.pendingToks {
		if matched[newBase+i] {
			ms.decDF(adm.Dist[i])
			continue
		}
		ms.docs = append(ms.docs, mineDoc{id: d.pendingIDs[i], toks: toks, dist: adm.Dist[i], sel: adm.Top[i], epoch: ms.epoch})
	}
	return newTIs
}
