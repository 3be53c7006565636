package stream

import (
	"sort"

	"infoshield/internal/align"
	"infoshield/internal/mdl"
)

// Template lifecycle: the mechanisms that retire templates so a
// long-running detector's template set — and with it probe cost, arena
// memory, and snapshot size — stays bounded on an unbounded stream.
//
// Retirement never reindexes: a retired template becomes a tombstone
// (dead[ti] = true) whose slot survives, so template ids handed to
// callers stay stable across merges and evictions. The tiered index
// skips tombstones at probe time (see match); once tombstones are a
// meaningful fraction of the live set, rebuildIndex compacts postings,
// bucket aggregates, and arenas in one pass.
//
// Every lifecycle decision is a pure function of the ingest sequence:
// the recency clock is the document id (not wall time), merge candidates
// come from the deterministic tiered probe, and eviction order is a
// total order over (lastMatch, DocCount, index). Write-ahead-log replay
// therefore reproduces retirements exactly — no lifecycle events need
// logging beyond the documents themselves.

const (
	// rebuildMinTombs is the tombstone count below which the index is
	// never rebuilt (a handful of tombstones costs a few skipped
	// postings, not a rebuild).
	rebuildMinTombs = 32
	// rebuildFraction triggers a rebuild once tombstones accumulated
	// since the last one exceed 1/rebuildFraction of the live set.
	rebuildFraction = 4
)

// isDead reports whether template ti is a lifecycle tombstone.
func (d *Detector) isDead(ti int) bool { return d.anyDead && d.dead[ti] }

// resolve follows merge forward pointers to the surviving template.
// Chains terminate at a live template or at a tombstone retired without
// a successor (evicted/aged-out), whose id is returned as-is.
func (d *Detector) resolve(ti int) int {
	if !d.anyDead {
		return ti
	}
	for d.dead[ti] && d.forward[ti] >= 0 {
		ti = int(d.forward[ti])
	}
	return ti
}

// kill retires template ti into a tombstone, forwarding its assignments
// to fwd (-1 for none). The index is not rebuilt here — probes skip the
// tombstone via dead[] until rebuildIndex compacts it away.
func (d *Detector) kill(ti int, fwd int32) {
	d.dead[ti] = true
	d.forward[ti] = fwd
	d.anyDead = true
	d.liveCount--
	d.tombSinceRebuild++
	if b := d.index.meta[ti].bucket; b >= 0 {
		d.index.buckets[b].live--
	}
}

// probeSeq renders template ti as a document: constants verbatim, each
// slot as a fresh sentinel token at or above the vocabulary size.
// Sentinels can never equal a registered constant (token ids are dense
// below vocab.Size()) and never reach a postings chain (heads is at most
// vocab.Size() long), so probing with the sequence measures exactly how
// another template's constants align with this one's — slots stay
// alignable but never fake a constant match.
func (d *Detector) probeSeq(ti int) []int {
	t := &d.templates[ti]
	seq := make([]int, len(t.Tokens))
	slot := 0
	for i, tok := range t.Tokens {
		if t.Wild[i] {
			seq[i] = d.vocab.Size() + slot
			slot++
			continue
		}
		seq[i] = tok
	}
	return seq
}

// encodeCost is the exact matched cost of encoding seq with template ti
// under a numT-template model — the same expression the serving probe
// evaluates (PairwiseWildScratch + DataCostMatched with the S(1) slot
// vector).
func (d *Detector) encodeCost(ti int, seq []int, numT int) float64 {
	t := &d.templates[ti]
	a := align.PairwiseWildScratch(t.Tokens, t.Wild, seq, &d.sc.wild)
	return mdl.DataCostMatched(mdl.AlignStats{
		AlignLen:   a.Len(),
		Unmatched:  a.Distance(),
		AddedWords: a.Subs + a.Inss,
		SlotWords:  t.SlotWords,
	}, numT, d.vocab.Size())
}

// tryMerge tests freshly mined template ti against the existing set and
// merges when MDL says two templates describe one campaign: ti's
// consensus sequence probes the tiered index with ti itself temporarily
// tombstoned, and a hit means some other template encodes ti's consensus
// more cheaply than standalone — the same C(d|T) < C(d) criterion that
// admits documents. The survivor is whichever side encodes the *other's*
// consensus with the larger saving (MDL-preferred direction); the loser
// tombstones with a forward pointer so its assignments resolve to the
// survivor.
func (d *Detector) tryMerge(ti int) {
	seq := d.probeSeq(ti)
	if len(seq) == 0 || d.liveCount < 2 {
		return
	}
	// Probe with ti out of the model so it cannot match itself and the
	// lg t term reflects the counterfactual set. The throwaway Stats
	// keeps merge probes out of the serving counters (their invariants
	// are pinned per ingested document).
	bi := &d.index.buckets[d.index.meta[ti].bucket]
	savedAny := d.anyDead
	d.dead[ti] = true
	d.anyDead = true
	d.liveCount--
	bi.live--
	var tmp Stats
	other := d.match(seq, d.vocab.Size(), &d.sc, &tmp)
	d.dead[ti] = false
	d.anyDead = savedAny
	d.liveCount++
	bi.live++
	if other < 0 {
		return
	}

	// Direction: keep the template that compresses the other better.
	numT := d.liveCount - 1 // the post-merge model size
	seqO := d.probeSeq(other)
	saveKeepOther := mdl.DocCost(len(seq), d.vocab.Size()) - d.encodeCost(other, seq, numT)
	saveKeepNew := mdl.DocCost(len(seqO), d.vocab.Size()) - d.encodeCost(ti, seqO, numT)
	keeper, loser := other, ti
	if saveKeepNew > saveKeepOther {
		keeper, loser = ti, other
	}
	d.templates[keeper].DocCount += d.templates[loser].DocCount
	d.templates[loser].DocCount = 0
	if d.lastMatch[loser] > d.lastMatch[keeper] {
		d.lastMatch[keeper] = d.lastMatch[loser]
	}
	d.kill(loser, int32(keeper))
	d.stats.TemplatesMerged++
}

// lifecyclePass runs after every mining pass: merge each new template,
// age out stale ones, evict down to the cap, and compact the index when
// tombstones pile up. Order matters and is fixed — merge first (a new
// near-duplicate should fold into its twin, not evict it), then TTL,
// then the cap — so replay reproduces the exact retirement sequence.
func (d *Detector) lifecyclePass(newTIs []int) {
	lc := d.Lifecycle
	if !lc.bounded() {
		return
	}
	if lc.Merge {
		for _, ti := range newTIs {
			if d.dead[ti] {
				continue
			}
			d.tryMerge(ti)
		}
	}
	if lc.TTL > 0 {
		for ti := range d.templates {
			if d.isDead(ti) {
				continue
			}
			if d.nextID-d.lastMatch[ti] > lc.TTL {
				d.kill(ti, -1)
				d.stats.TemplatesAged++
			}
		}
	}
	if lc.MaxTemplates > 0 && d.liveCount > lc.MaxTemplates {
		live := make([]int, 0, d.liveCount)
		for ti := range d.templates {
			if !d.dead[ti] {
				live = append(live, ti)
			}
		}
		sort.Slice(live, func(a, b int) bool {
			ta, tb := live[a], live[b]
			if d.lastMatch[ta] != d.lastMatch[tb] {
				return d.lastMatch[ta] < d.lastMatch[tb]
			}
			if d.templates[ta].DocCount != d.templates[tb].DocCount {
				return d.templates[ta].DocCount < d.templates[tb].DocCount
			}
			return ta < tb
		})
		excess := d.liveCount - lc.MaxTemplates
		for _, ti := range live[:excess] {
			d.kill(ti, -1)
			d.stats.TemplatesEvicted++
		}
	}
	if d.tombSinceRebuild >= rebuildMinTombs && d.tombSinceRebuild*rebuildFraction >= d.liveCount {
		d.rebuildIndex()
	}
}

// rebuildIndex re-registers every live template into a fresh tiered
// index and fresh arenas, zeroing tombstoned payloads so their postings,
// bucket aggregates, and arena bytes are actually reclaimed. Template
// indices are preserved (tombstones keep a dead meta slot), so nothing
// outside the index changes. The posting store is emptied in place rather
// than reallocated: its token tables span the whole vocabulary, and
// regrowing them on every rebuild was the largest allocation of a
// continuously mining detector.
func (d *Detector) rebuildIndex() {
	old := &d.index
	old.store.reset()
	fresh := tmplIndex{
		store:    old.store,
		regCount: old.regCount, // pooled registration scratch (all-zero between adds)
		regMask:  old.regMask,
		regOrder: old.regOrder,
		regToks:  old.regToks,
		regMasks: old.regMasks,
	}
	var tokA arena[int]
	var wildA arena[bool]
	d.index = fresh
	for ti := range d.templates {
		if d.dead[ti] {
			d.templates[ti] = Template{}
			d.index.addDead()
			continue
		}
		t := &d.templates[ti]
		t.Tokens = tokA.copyIn(t.Tokens)
		t.Wild = wildA.copyIn(t.Wild)
		d.index.add(ti, t.Tokens, t.Wild, len(t.SlotWords))
	}
	d.tokA = tokA
	d.wildA = wildA
	d.tombSinceRebuild = 0
}
