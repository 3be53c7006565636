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
// skips tombstones at probe time (see match); once tombstones match the
// live set in number, compact rebuilds the detector — postings, bucket
// aggregates, arenas and vocabulary — from its live state in one pass.
//
// Every lifecycle decision is a pure function of the ingest sequence:
// the recency clock is the document id (not wall time), merge candidates
// come from the deterministic tiered probe, and eviction order is a
// total order over (lastMatch, DocCount, index). Write-ahead-log replay
// therefore reproduces retirements exactly — no lifecycle events need
// logging beyond the documents themselves.

const (
	// rebuildMinTombs is the tombstone count below which tombstones
	// never trigger a compaction (a handful of them costs a few skipped
	// postings, not a compaction).
	rebuildMinTombs = 32
	// defaultCompactFloor is the vocabulary size below which the
	// lifecycle never compacts the vocabulary.
	defaultCompactFloor = 1 << 17
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
// tombstone via dead[] until compact drops it from the index.
func (d *Detector) kill(ti int, fwd int32) {
	d.dead[ti] = true
	d.forward[ti] = fwd
	d.anyDead = true
	d.liveCount--
	d.tombSinceCompact++
	if b := d.index.meta[ti].bucket; b >= 0 {
		d.index.buckets[b].live--
	}
}

// probeSeq renders template ti as a document: constants verbatim, each
// slot as a fresh sentinel token at or above the vocabulary size.
// Sentinels can never equal a registered constant (token ids are dense
// below vocab.Size()) and never reach a postings chain (the posting
// store's table holds only registered constants, and find treats ids
// past its 32-bit keys as misses), so probing with the sequence measures
// exactly how another template's constants align with this one's —
// slots stay alignable but never fake a constant match.
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
	// lg t term reflects the counterfactual set. The throwaway MatchStats
	// keeps merge probes out of the serving counters (their invariants
	// are pinned per ingested document).
	bi := &d.index.buckets[d.index.meta[ti].bucket]
	savedAny := d.anyDead
	d.dead[ti] = true
	d.anyDead = true
	d.liveCount--
	bi.live--
	sc := d.scratch(0)
	var tmp MatchStats
	other := d.match(seq, d.vocab.Size(), sc, &tmp)
	d.dead[ti] = false
	d.anyDead = savedAny
	d.liveCount++
	bi.live++
	if other < 0 {
		return
	}

	// Direction: keep the template that compresses the other better,
	// each side priced as the probe prices a document, under the
	// post-merge model size. With no distance to seed a band, each
	// alignment is the one full fill.
	vocabSize := d.vocab.Size()
	b := align.NewWildBounder(len(seq), d.liveCount-1, vocabSize)
	seqO := d.probeSeq(other)
	to, tn := &d.templates[other], &d.templates[ti]
	costOther, _ := b.Cost(to.Tokens, to.Wild, seq, max(len(to.Tokens), len(seq)),
		int(d.index.meta[other].slots), &sc.wild)
	costNew, _ := b.Cost(tn.Tokens, tn.Wild, seqO, max(len(tn.Tokens), len(seqO)),
		int(d.index.meta[ti].slots), &sc.wild)
	saveKeepOther := mdl.DocCost(len(seq), vocabSize) - costOther
	saveKeepNew := mdl.DocCost(len(seqO), vocabSize) - costNew
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
	d.stats.Merged++
}

// lifecyclePass runs after every mining pass: merge each new template,
// age out stale ones, evict down to the cap, then compact once the
// vocabulary has doubled since the last compaction or the tombstones
// retired since then reach max(rebuildMinTombs, live templates). Order
// matters and is fixed — merge first (a new near-duplicate should fold
// into its twin, not evict it), then TTL, then the cap — so replay
// reproduces the exact retirement sequence.
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
			if len(d.verdicts)-d.lastMatch[ti] > lc.TTL {
				d.kill(ti, -1)
				d.stats.AgedOut++
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
			d.stats.Evicted++
		}
	}
	if d.vocab.Size() >= max(d.compactFloor, 2*d.vocabKept) ||
		d.tombSinceCompact >= max(rebuildMinTombs, d.liveCount) {
		d.compact()
	}
}

// compact rebuilds the detector from its live state: a fresh detector
// restores this one's capture — Load's own path, so compaction and
// Save→Load are one operation — and takes over its settings, counters,
// probe scratches and the miner's emptied tables. restore registers only
// the live templates into a fresh index and arenas (a tombstone keeps
// its slot, its DocCount and a meta entry in no bucket), and interns only
// the words the live templates, pending buffer and retained window
// reference. The verdict column moves across uncopied, so a compaction
// costs the live state, not the stream length. The old vocabulary is
// dropped whole, never rewritten, and with it every id the old state
// handed out; V falls to the live word count.
func (d *Detector) compact() {
	ds := d.capture()
	fresh := New(d.Options)
	if d.mine != nil {
		d.mine.reset()
		fresh.mine = d.mine
	}
	fresh.restore(ds)
	fresh.BatchSize, fresh.Lifecycle, fresh.compactFloor = d.BatchSize, d.Lifecycle, d.compactFloor
	fresh.stats, fresh.scratches = d.stats, d.scratches
	fresh.stats.VocabCompactions++
	fresh.stats.VocabDropped += d.vocab.Size() - fresh.vocab.Size()
	*d = *fresh
	d.matchFn = d.matchChunk
}
