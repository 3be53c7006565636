package stream

import (
	"math"
	"sort"

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
// Two deliberate simplifications versus the batch coarse pass, both
// deterministic: phrase identity is the 64-bit mixed rolling hash
// (collisions merge two phrases instead of chaining — across a bounded
// window the probability is negligible, and a merge only over-connects
// a component, never corrupts state), and component growth always uses
// the permissive single-shared-phrase rule (Options.MinSharedPhrases is
// a batch-pipeline ablation knob). Score ties break by (position,
// length, hash) instead of the batch extractor's lexicographic token
// order. Incremental mining is therefore equivalent in mechanism, not
// byte-identical in output, to the batch path — the byte-identity gate
// covers the default (non-incremental) configuration.

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
	df    map[uint64]int
	docs  []mineDoc // retained unmatched docs, ascending id
	epoch int
}

func (ms *mineState) decDF(dist []uint64) {
	for _, h := range dist {
		if c := ms.df[h] - 1; c > 0 {
			ms.df[h] = c
		} else {
			delete(ms.df, h)
		}
	}
}

// minePhrase is one distinct phrase of one document during extraction.
type minePhrase struct {
	hash uint64
	tf   int32
	pos  int32 // first occurrence
	n    int32 // length in tokens
}

// minePhrases builds the distinct phrase set (n-grams of 1..maxN token
// ids) of one document — the rolling-hash mirror of the tfidf extractor,
// with hash equality as identity (see the package comment above).
func minePhrases(toks []int, maxN int) []minePhrase {
	idx := make(map[uint64]int, len(toks)*maxN)
	var list []minePhrase
	for i := 0; i < len(toks); i++ {
		var h uint64
		for n := 1; n <= maxN && i+n <= len(toks); n++ {
			h = tfidf.PhraseHashExtend(h, toks[i+n-1])
			k := tfidf.PhraseHashMix(h)
			if li, ok := idx[k]; ok {
				list[li].tf++
				continue
			}
			idx[k] = len(list)
			list = append(list, minePhrase{hash: k, tf: 1, pos: int32(i), n: int32(n)})
		}
	}
	return list
}

// mineSelect picks a document's top phrases against the window DF table,
// mirroring the batch extractor's selection dynamics: budget is
// ⌈frac·distinct⌉ (min 1), zero-score phrases (df = N) are excluded, an
// idf floor at floorFrac of the document's best keeps quota-filler
// phrases out, and positional diversity admits a phrase only when its
// first occurrence covers no already-covered token.
func mineSelect(phrases []minePhrase, df map[uint64]int, nDocs, docLen int, frac, floorFrac float64) []uint64 {
	if len(phrases) == 0 {
		return nil
	}
	type scored struct {
		p     minePhrase
		idf   float64
		score float64
	}
	cand := make([]scored, 0, len(phrases))
	maxIdf := 0.0
	for _, p := range phrases {
		d := df[p.hash]
		if d <= 0 {
			continue
		}
		idf := math.Log(float64(nDocs) / float64(d))
		score := float64(p.tf) * idf
		if score <= 0 {
			continue
		}
		if idf > maxIdf {
			maxIdf = idf
		}
		cand = append(cand, scored{p, idf, score})
	}
	if len(cand) == 0 {
		return nil
	}
	sort.Slice(cand, func(a, b int) bool {
		if cand[a].score != cand[b].score {
			return cand[a].score > cand[b].score
		}
		if cand[a].p.pos != cand[b].p.pos {
			return cand[a].p.pos < cand[b].p.pos
		}
		if cand[a].p.n != cand[b].p.n {
			return cand[a].p.n < cand[b].p.n
		}
		return cand[a].p.hash < cand[b].p.hash
	})
	k := int(math.Ceil(frac * float64(len(phrases))))
	if k < 1 {
		k = 1
	}
	floor := maxIdf * floorFrac
	covered := make([]bool, docLen)
	var sel []uint64
	for _, c := range cand {
		if len(sel) >= k {
			break
		}
		if c.idf < floor {
			continue
		}
		fresh := true
		for p := c.p.pos; p < c.p.pos+c.p.n; p++ {
			if covered[p] {
				fresh = false
				break
			}
		}
		if !fresh {
			continue
		}
		for p := c.p.pos; p < c.p.pos+c.p.n; p++ {
			covered[p] = true
		}
		sel = append(sel, c.p.hash)
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

func (d *Detector) retainFlushes() int {
	if d.Lifecycle.RetainFlushes > 0 {
		return d.Lifecycle.RetainFlushes
	}
	return 8
}

func (d *Detector) retainDocs() int {
	if d.Lifecycle.RetainDocs > 0 {
		return d.Lifecycle.RetainDocs
	}
	return 8 * d.batchSize()
}

// distinctHashes lists a phrase set's hashes — the doc's DF footprint.
func distinctHashes(phrases []minePhrase) []uint64 {
	out := make([]uint64, len(phrases))
	for i, p := range phrases {
		out[i] = p.hash
	}
	return out
}

// flushIncremental is the incremental mining pass; see the package
// comment above for the shape. It returns the newly registered template
// indices for the lifecycle pass.
func (d *Detector) flushIncremental() []int {
	if d.mine == nil {
		d.mine = &mineState{df: make(map[uint64]int)}
	}
	ms := d.mine
	ms.epoch++

	// Age out, then cap, the retained window (oldest-first — docs is in
	// ascending id order, which is arrival order).
	retainF, retainD := d.retainFlushes(), d.retainDocs()
	keep := ms.docs[:0]
	for i := range ms.docs {
		if ms.epoch-ms.docs[i].epoch > retainF {
			ms.decDF(ms.docs[i].dist)
			continue
		}
		keep = append(keep, ms.docs[i])
	}
	if over := len(keep) - retainD; over > 0 {
		for i := 0; i < over; i++ {
			ms.decDF(keep[i].dist)
		}
		n := copy(keep, keep[over:])
		keep = keep[:n]
	}
	ms.docs = keep

	// Extract the new batch's phrases and fold them into the DF table
	// before selection, so new near-duplicates see each other's df.
	maxN := d.mineMaxN()
	newPhrases := make([][]minePhrase, len(d.pendingToks))
	for i, toks := range d.pendingToks {
		ps := minePhrases(toks, maxN)
		newPhrases[i] = ps
		for _, p := range ps {
			ms.df[p.hash]++
		}
	}
	nWindow := len(ms.docs) + len(d.pendingToks)
	frac, floorFrac := d.mineTopFraction(), tfidf.DefaultRelativeFloor
	newSel := make([][]uint64, len(d.pendingToks))
	touched := make(map[uint64]struct{})
	for i, toks := range d.pendingToks {
		sel := mineSelect(newPhrases[i], ms.df, nWindow, len(toks), frac, floorFrac)
		newSel[i] = sel
		for _, h := range sel {
			touched[h] = struct{}{}
		}
	}

	// Candidate set: retained docs whose selections intersect the new
	// batch's (the touched components), then the new docs — ascending id
	// within each group, groups in id order since retained ids precede
	// pending ids. mineAll (the benchmark's from-scratch baseline)
	// re-clusters the whole window instead, paying the stateless miner's
	// full cost: every retained document re-extracts its phrases and
	// re-selects against the window DF. (The maintained DF table equals a
	// fresh count over window + batch by the invariant above, so no
	// recount is needed for the baseline to be faithful.)
	var candIdx []int // retained candidates' positions in ms.docs
	var localToks [][]int
	var localSel [][]uint64
	var localIDs []int
	for i := range ms.docs {
		doc := &ms.docs[i]
		sel := doc.sel
		if d.mineAll {
			ps := minePhrases(doc.toks, maxN)
			sel = mineSelect(ps, ms.df, nWindow, len(doc.toks), frac, floorFrac)
		} else {
			hit := false
			for _, h := range doc.sel {
				if _, ok := touched[h]; ok {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		}
		candIdx = append(candIdx, i)
		localToks = append(localToks, doc.toks)
		localSel = append(localSel, sel)
		localIDs = append(localIDs, doc.id)
	}
	reused := len(candIdx)
	newBase := len(localIDs)
	for i := range d.pendingToks {
		localToks = append(localToks, d.pendingToks[i])
		localSel = append(localSel, newSel[i])
		localIDs = append(localIDs, d.pendingIDs[i])
	}
	d.stats.MineReusedDocs += reused
	d.stats.MineClusteredDocs += len(localIDs)

	// Components over the shared-phrase graph (union-find keyed by
	// first-seen phrase owner), ≥ 2 members, ordered by least member.
	parent := make([]int, len(localIDs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	owner := make(map[uint64]int, len(touched))
	for l, sel := range localSel {
		for _, h := range sel {
			if o, ok := owner[h]; ok {
				ra, rb := find(o), find(l)
				if ra != rb {
					if ra > rb {
						ra, rb = rb, ra
					}
					parent[rb] = ra
				}
			} else {
				owner[h] = l
			}
		}
	}
	groups := make(map[int][]int)
	for l := range localIDs {
		r := find(l)
		groups[r] = append(groups[r], l)
	}
	roots := make([]int, 0, len(groups))
	for r, g := range groups {
		if len(g) >= 2 {
			roots = append(roots, r)
		}
	}
	sort.Ints(roots) // root is the least member, so this is least-member order
	coarse := make([][]int, 0, len(roots))
	for _, r := range roots {
		coarse = append(coarse, groups[r])
	}

	// Fine pass: same MDL mining as the batch pipeline, over detector-
	// vocab tokens, so accepted templates register without re-encoding.
	topLocal := make([][]tfidf.PhraseID, len(localIDs))
	for l, sel := range localSel {
		ps := make([]tfidf.PhraseID, len(sel))
		for j, h := range sel {
			ps[j] = tfidf.PhraseID{Hash: h}
		}
		topLocal[l] = ps
	}
	refined, _ := core.Refine(coarse, localToks, topLocal, d.vocab.Size(), d.Options)

	matched := make([]bool, len(localIDs))
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
				Pattern:  tr.Template,
				Wild:     wild,
				Tokens:   tokens,
				DocCount: len(tr.Docs),
			})
			d.stats.TemplatesMined++
			newTIs = append(newTIs, ti)
			for _, l := range tr.Docs {
				d.assignments[localIDs[l]] = ti
				matched[l] = true
			}
		}
	}

	// Matched documents leave the window (with their DF contributions);
	// unmatched new documents join it.
	if reused > 0 {
		rm := make(map[int]bool, reused)
		for k := 0; k < reused; k++ {
			if matched[k] {
				rm[candIdx[k]] = true
			}
		}
		if len(rm) > 0 {
			keep := ms.docs[:0]
			for i := range ms.docs {
				if rm[i] {
					ms.decDF(ms.docs[i].dist)
					continue
				}
				keep = append(keep, ms.docs[i])
			}
			ms.docs = keep
		}
	}
	for i := range d.pendingToks {
		if matched[newBase+i] {
			ms.decDF(distinctHashes(newPhrases[i]))
			continue
		}
		ms.docs = append(ms.docs, mineDoc{
			id:    d.pendingIDs[i],
			toks:  d.pendingToks[i],
			dist:  distinctHashes(newPhrases[i]),
			sel:   newSel[i],
			epoch: ms.epoch,
		})
	}
	return newTIs
}
