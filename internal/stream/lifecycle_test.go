package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"infoshield/internal/align"
	"infoshield/internal/core"
	"infoshield/internal/datagen"
	"infoshield/internal/mdl"
)

// liveReferenceMatch is referenceMatch restricted to live templates: the
// full DP against every non-tombstoned template, with the model size set
// to the live count — the oracle for what a probe must see after
// evictions, age-outs, and merges.
func liveReferenceMatch(d *Detector, toks []int) int {
	if len(toks) == 0 || d.liveCount == 0 {
		return -1
	}
	V := d.vocab.Size()
	best, bestCost := -1, mdl.DocCost(len(toks), V)
	var sc align.Scratch
	for ti := range d.templates {
		if d.isDead(ti) {
			continue
		}
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
		}, d.liveCount, V)
		if cost < bestCost {
			best, bestCost = ti, cost
		}
	}
	return best
}

// TestNonIncrementalFlushEmptiesWindow: with Lifecycle.Incremental off,
// a flush mines its buffer alone. Every flush, automatic or forced, must
// leave the miner's window and its DF table empty, so Save writes no
// retained blob, at every worker count; and the corpus must leave
// documents unmatched, which the incremental miner would have kept.
func TestNonIncrementalFlushEmptiesWindow(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			docs := randomStreamCorpus(rng, 300)
			d := New(core.Options{Workers: workers})
			d.BatchSize = 64
			check := func(label string) {
				t.Helper()
				if n, df := len(d.mine.docs), d.mine.df.Len(); n != 0 || df != 0 {
					t.Fatalf("%s: the window holds %d documents and %d DF phrases", label, n, df)
				}
				var st stateV4
				if err := json.Unmarshal(saveBytes(t, d), &st); err != nil {
					t.Fatal(err)
				}
				if st.Retained != nil {
					t.Fatalf("%s: Save wrote a retained blob of %d bytes", label, len(st.Retained))
				}
			}
			flushes := 0
			for lo := 0; lo < len(docs); lo += 48 {
				before := d.Stats().Flushes
				d.AddBatch(docs[lo:min(lo+48, len(docs))])
				if d.Stats().Flushes != before {
					flushes++
					check(fmt.Sprintf("workers=%d seed=%d flush %d", workers, seed, flushes))
				}
			}
			d.Flush()
			check(fmt.Sprintf("workers=%d seed=%d final flush", workers, seed))
			noise := 0
			for id := range len(docs) {
				if d.Assignment(id).Template < 0 {
					noise++
				}
			}
			if flushes == 0 || d.NumTemplates() == 0 || noise == 0 {
				t.Fatalf("workers=%d seed=%d: %d auto-flushes mined %d templates and left %d documents unmatched — the test proves nothing",
					workers, seed, flushes, d.NumTemplates(), noise)
			}
		}
	}
}

// TestLifecycleAgeOut: a template that stops matching for more than TTL
// ingested documents is retired — its slot survives (historical verdicts
// keep their id), but new members of the campaign buffer instead of
// matching.
func TestLifecycleAgeOut(t *testing.T) {
	d := New(core.Options{})
	d.BatchSize = 1 << 30
	d.Lifecycle = Lifecycle{TTL: 50}
	ids := d.AddBatch(append(campaign(20), noise(300, 6)...))
	d.Flush()
	if d.NumTemplates() == 0 {
		t.Fatal("no template mined")
	}
	if d.NumLive() != d.NumTemplates() {
		t.Fatalf("live %d != templates %d before any retirement", d.NumLive(), d.NumTemplates())
	}

	// 60 unmatched documents push the clock past TTL=50; the flush's
	// lifecycle pass ages the campaign template out.
	d.AddBatch(noise(60, 7))
	d.Flush()
	if d.NumLive() != 0 {
		t.Fatalf("live = %d after age-out, want 0", d.NumLive())
	}
	if got := d.Stats().AgedOut; got == 0 {
		t.Fatal("AgedOut not counted")
	}
	if !d.TemplateInfo(0).Dead {
		t.Fatal("TemplateInfo(0).Dead = false after age-out")
	}
	// Historical verdict stands: the mined members keep their template id.
	if a := d.Assignment(ids[0]); a.Template < 0 || a.Pending {
		t.Fatalf("historical assignment lost: %+v", a)
	}
	// A new campaign member no longer matches — it buffers.
	p := d.Add("limited offer buy the premium golden package today visit site9999.example now")
	if a := d.Assignment(p); !a.Pending {
		t.Fatalf("new member matched a retired template: %+v", a)
	}
}

// TestLifecycleMerge exercises the MDL merge through the lifecycle pass:
// a freshly mined near-duplicate folds into its existing twin, the loser
// tombstones with a forward pointer, and assignments resolve through it.
func TestLifecycleMerge(t *testing.T) {
	d := New(core.Options{})
	d.BatchSize = 1 << 30
	d.Lifecycle = Lifecycle{Merge: true}
	words := strings.Fields("mega casino bonus spin the lucky wheel claim prize now")
	wild := make([]bool, len(words))
	wild[6] = true
	a, err := d.Register(words, wild)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Register(words, wild)
	if err != nil {
		t.Fatal(err)
	}
	d.templates[b].DocCount = 3

	d.lifecyclePass([]int{b})
	if !d.isDead(b) || d.isDead(a) {
		t.Fatalf("dead flags: a=%v b=%v, want loser b dead", d.isDead(a), d.isDead(b))
	}
	if d.forward[b] != int32(a) {
		t.Fatalf("forward[b] = %d, want %d", d.forward[b], a)
	}
	if d.resolve(b) != a {
		t.Fatalf("resolve(b) = %d, want %d", d.resolve(b), a)
	}
	if d.NumLive() != 1 {
		t.Fatalf("live = %d, want 1", d.NumLive())
	}
	if d.Stats().Merged != 1 {
		t.Fatalf("Merged = %d", d.Stats().Merged)
	}
	if d.templates[a].DocCount != 3 || d.templates[b].DocCount != 0 {
		t.Fatalf("DocCounts after transfer: a=%d b=%d", d.templates[a].DocCount, d.templates[b].DocCount)
	}
	// New members match the keeper.
	id := d.Add("mega casino bonus spin the lucky jackpot claim prize now")
	if got := d.Assignment(id); got.Template != a || got.Pending {
		t.Fatalf("post-merge verdict %+v, want template %d", got, a)
	}
	checkIndex(t, "after merge", d)

	// Negative control: with lifecycle off, the identical pass is a no-op.
	d2 := New(core.Options{})
	if _, err := d2.Register(words, wild); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Register(words, wild); err != nil {
		t.Fatal(err)
	}
	d2.lifecyclePass([]int{1})
	if d2.NumLive() != 2 {
		t.Fatalf("lifecycle-off pass retired a template: live = %d", d2.NumLive())
	}
}

// TestLifecycleMergeLong runs the MDL merge over templates past
// align.WildBitCap, where both the merge probe and the direction costs
// take the unbanded full fill. Each round mines a near-duplicate of a
// long template (a few words replaced, a few constants turned into slots
// on one side) next to an unrelated long template; it must fold into its
// twin, with the keeper the side the unhoisted DataCostMatched oracle
// prefers.
func TestLifecycleMergeLong(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	word := func() string { return fmt.Sprintf("mw%d", rng.Intn(500)) }
	long := func(n int) ([]string, []bool) {
		words := make([]string, n)
		for i := range words {
			words[i] = word()
		}
		wild := make([]bool, n)
		wild[n/3], wild[2*n/3] = true, true
		return words, wild
	}
	// oracle is the matched cost of seq against template x under a
	// numT-template model: the full fill priced by the unhoisted
	// DataCostMatched, as the reference scan prices a probe.
	var sc align.Scratch
	oracle := func(d *Detector, x int, seq []int, numT int) float64 {
		tm := &d.templates[x]
		a := align.PairwiseWildScratch(tm.Tokens, tm.Wild, seq, &sc)
		var slotWords []int
		for _, w := range tm.Wild {
			if w {
				slotWords = append(slotWords, 1)
			}
		}
		return mdl.DataCostMatched(mdl.AlignStats{
			AlignLen:   a.Len(),
			Unmatched:  a.Distance(),
			AddedWords: a.Subs + a.Inss,
			SlotWords:  slotWords,
		}, numT, d.vocab.Size())
	}
	for round := 0; round < 4; round++ {
		d := New(core.Options{})
		d.BatchSize = 1 << 30
		d.Lifecycle = Lifecycle{Merge: true}
		other, otherWild := long(70 + rng.Intn(60))
		words, wild := long(70 + rng.Intn(60))
		twin, twinWild := slices.Clone(words), slices.Clone(wild)
		for k := 0; k < 3; k++ {
			twin[rng.Intn(len(twin))] = word()
			twinWild[rng.Intn(len(twinWild))] = true
		}
		if round%2 == 1 {
			// The extra slots go to the existing side instead, so both
			// merge directions are exercised.
			words, wild, twin, twinWild = twin, twinWild, words, wild
		}
		if _, err := d.Register(other, otherWild); err != nil {
			t.Fatal(err)
		}
		a, err := d.Register(words, wild)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Register(twin, twinWild)
		if err != nil {
			t.Fatal(err)
		}
		// The post-merge model holds two templates.
		saveKeepA := mdl.DocCost(len(twin), d.vocab.Size()) - oracle(d, a, d.probeSeq(b), 2)
		saveKeepB := mdl.DocCost(len(words), d.vocab.Size()) - oracle(d, b, d.probeSeq(a), 2)
		keeper, loser := a, b
		if saveKeepB > saveKeepA {
			keeper, loser = b, a
		}

		d.lifecyclePass([]int{b})
		if d.Stats().Merged != 1 || d.NumLive() != 2 {
			t.Fatalf("round %d: merged %d, live %d; want 1 merge, 2 live", round, d.Stats().Merged, d.NumLive())
		}
		if !d.isDead(loser) || d.isDead(keeper) || d.resolve(loser) != keeper {
			t.Fatalf("round %d: keeper %d loser %d, dead a=%v b=%v, resolve(loser)=%d",
				round, keeper, loser, d.isDead(a), d.isDead(b), d.resolve(loser))
		}
		checkIndex(t, fmt.Sprintf("round %d after merge", round), d)
	}
}

// TestLifecycleEvictionAndRebuild: a hard cap far below the registered
// count evicts in (lastMatch, DocCount, index) order, triggers the
// tombstone compaction, and leaves the tiered index byte-consistent with
// a from-scratch rebuild — with every probe agreeing with the live
// reference scan.
func TestLifecycleEvictionAndRebuild(t *testing.T) {
	set := datagen.ScaleTemplates(datagen.ScaleConfig{Seed: 5, Templates: 180})
	d := New(core.Options{})
	d.BatchSize = 1 << 30
	d.Lifecycle = Lifecycle{MaxTemplates: 60}
	for _, tmpl := range set.Templates {
		if _, err := d.Register(tmpl.Words, tmpl.Wild); err != nil {
			t.Fatal(err)
		}
	}
	d.Add("qz1 qz2 qz3 qz4 qz5 qz6 qz7 qz8") // unmatched: arms the flush
	d.Flush()

	if d.NumLive() != 60 {
		t.Fatalf("live = %d, want cap 60", d.NumLive())
	}
	if d.NumTemplates() != 180 {
		t.Fatalf("template slots = %d, want 180 (ids stay stable)", d.NumTemplates())
	}
	if d.Stats().Evicted != 120 {
		t.Fatalf("Evicted = %d, want 120", d.Stats().Evicted)
	}
	// All recency clocks and DocCounts tied, so eviction falls back to
	// index order: 0..119 die, 120..179 survive — and 120 tombstones
	// against 60 live triggers the compaction.
	for ti := 0; ti < 120; ti++ {
		if !d.isDead(ti) {
			t.Fatalf("template %d should be evicted", ti)
		}
	}
	if d.Stats().VocabCompactions != 1 {
		t.Fatalf("%d compactions, want the one 120 tombstones trigger", d.Stats().VocabCompactions)
	}
	checkIndex(t, "after rebuild", d)

	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 80; k++ {
		ti := rng.Intn(180)
		toks := d.vocab.Encode(d.tk.Tokens(set.Probe(rng, ti)))
		got := d.match(toks, d.vocab.Size(), d.scratch(0), &d.stats.MatchStats)
		if want := liveReferenceMatch(d, toks); got != want {
			t.Fatalf("probe of template %d: tiered %d != live reference %d", ti, got, want)
		}
	}
	st := d.Stats()
	if st.DPPruned+st.DPRuns != st.Candidates {
		t.Fatalf("pruned %d + runs %d != candidates %d", st.DPPruned, st.DPRuns, st.Candidates)
	}
	if st.BitmapSkips+st.PostingsWalks != st.Probes {
		t.Fatalf("bitmap skips %d + walks %d != probes %d", st.BitmapSkips, st.PostingsWalks, st.Probes)
	}
}

// TestLifecycleBounded is the acceptance gate for the cap: a drifting
// campaign stream over 110 flush cycles — far more campaigns than the
// cap admits — keeps the live count at or under the cap after every
// flush while template slots keep growing, and the matcher's accounting
// invariants survive the constant churn.
func TestLifecycleBounded(t *testing.T) {
	drift := datagen.NewDriftStream(datagen.DriftConfig{Seed: 3, Active: 8, ChurnEvery: 96})
	d := New(core.Options{})
	d.BatchSize = 1 << 30
	d.Lifecycle = Lifecycle{MaxTemplates: 16, TTL: 2000, Merge: true, Incremental: true}

	const cycles, batch = 110, 48
	k := 0
	for cycle := 0; cycle < cycles; cycle++ {
		d.AddBatch(drift.Docs(k, k+batch))
		k += batch
		d.Flush()
		checkMineDF(t, fmt.Sprintf("cycle %d", cycle), d)
		checkIndex(t, fmt.Sprintf("cycle %d", cycle), d)
		if live := d.NumLive(); live > 16 {
			t.Fatalf("cycle %d: live = %d > cap 16", cycle, live)
		}
	}
	st := d.Stats()
	if st.Mined <= 16 {
		t.Fatalf("only %d templates mined over %d cycles — drift generator not churning", st.Mined, cycles)
	}
	if st.Evicted+st.AgedOut+st.Merged == 0 {
		t.Fatal("no lifecycle retirements over a drifting stream")
	}
	// FlushDocs counts buffered documents only: campaign members that
	// matched a live template at ingest never reach a flush, which is the
	// point of serving from the template set.
	if st.Flushes != cycles || st.FlushDocs == 0 || st.FlushDocs >= cycles*batch {
		t.Fatalf("flush accounting: %d flushes / %d docs over %d ingested",
			st.Flushes, st.FlushDocs, cycles*batch)
	}
	if d.NumTemplates() <= 16 {
		t.Fatalf("template slots = %d — ids should keep growing past the cap", d.NumTemplates())
	}
	checkIndex(t, "after drift", d)

	// The steady-state matcher still agrees with the live reference scan.
	for probe := 0; probe < 40; probe++ {
		toks := d.vocab.Encode(d.tk.Tokens(drift.Doc(k + probe)))
		got := d.match(toks, d.vocab.Size(), d.scratch(0), &d.stats.MatchStats)
		if want := liveReferenceMatch(d, toks); got != want {
			t.Fatalf("probe %d: tiered %d != live reference %d", probe, got, want)
		}
	}
	fin := d.Stats()
	if fin.DPPruned+fin.DPRuns != fin.Candidates {
		t.Fatalf("pruned %d + runs %d != candidates %d", fin.DPPruned, fin.DPRuns, fin.Candidates)
	}
	if fin.BitmapSkips+fin.PostingsWalks != fin.Probes {
		t.Fatalf("bitmap skips %d + walks %d != probes %d",
			fin.BitmapSkips, fin.PostingsWalks, fin.Probes)
	}
}

// TestIncrementalEmergence is the capability the batch path lacks: a
// campaign that trickles in below the clustering threshold per flush
// still assembles once later members arrive, and the early member's
// noise verdict is upgraded to the mined template.
func TestIncrementalEmergence(t *testing.T) {
	d := New(core.Options{})
	d.BatchSize = 1 << 30
	d.Lifecycle = Lifecycle{Incremental: true}

	raffle := func(i int) string {
		return fmt.Sprintf("grand winter raffle enter the diamond draw tonight code gw%04d only", i)
	}
	first := d.Add(raffle(0))
	d.AddBatch(noise(5, 41))
	d.Flush()
	checkMineDF(t, "flush 1", d)
	if a := d.Assignment(first); a.Template != -1 || a.Pending {
		t.Fatalf("singleton campaign member should be unmatched after flush 1: %+v", a)
	}

	second := d.Add(raffle(1))
	third := d.Add(raffle(2))
	d.AddBatch(noise(5, 42))
	d.Flush()
	checkMineDF(t, "flush 2", d)
	a1, a2, a3 := d.Assignment(first), d.Assignment(second), d.Assignment(third)
	if a1.Template < 0 {
		t.Fatalf("flush-1 member not upgraded by the cross-flush component: %+v", a1)
	}
	if a1.Template != a2.Template || a2.Template != a3.Template {
		t.Fatalf("campaign split across templates: %+v %+v %+v", a1, a2, a3)
	}
	if st := d.Stats(); st.MineReused == 0 {
		t.Fatal("MineReused = 0 — the retained window was never re-clustered")
	}
}

// TestIncrementalTouchedOnly: the touched-component candidate selection
// must re-cluster strictly fewer documents than re-clustering the whole
// retained window every flush would — len(window) + len(pending) per
// flush, counted just before each flush over the window documents that
// survive the flush's age-out and cap.
func TestIncrementalTouchedOnly(t *testing.T) {
	drift := datagen.NewDriftStream(datagen.DriftConfig{Seed: 11, Active: 6, ChurnEvery: 64})
	d := New(core.Options{})
	d.BatchSize = 1 << 30
	d.Lifecycle = Lifecycle{Incremental: true}
	wholeWindow, k := 0, 0
	for cycle := 0; cycle < 20; cycle++ {
		d.AddBatch(drift.Docs(k, k+32))
		k += 32
		wholeWindow += d.Pending()
		if ms := d.mine; ms != nil {
			kept := 0
			for _, doc := range ms.docs {
				if ms.epoch+1-doc.epoch <= retainFlushes {
					kept++
				}
			}
			wholeWindow += min(kept, retainBatches*d.BatchSize)
		}
		d.Flush()
		checkMineDF(t, fmt.Sprintf("cycle %d", cycle), d)
	}
	st := d.Stats()
	if st.MineClustered >= wholeWindow {
		t.Fatalf("touched-only clustered %d docs, whole-window re-clustering %d — no work saved",
			st.MineClustered, wholeWindow)
	}
	if st.MineReused == 0 {
		t.Fatal("touched-only never reused a retained document")
	}
}

// TestLifecyclePersistRoundTrip: Save/Load across evictions, merges, and
// a live retained window. The saved state is a fixed point, the restored
// lifecycle markers equal the original's, and two detectors loaded from
// the same state stay byte-identical through further drift — the
// determinism the WAL-replay contract rests on.
func TestLifecyclePersistRoundTrip(t *testing.T) {
	lc := Lifecycle{MaxTemplates: 12, TTL: 3000, Merge: true, Incremental: true}
	drift := datagen.NewDriftStream(datagen.DriftConfig{Seed: 9, Active: 6, ChurnEvery: 64})

	d1 := New(core.Options{})
	d1.BatchSize = 1 << 30
	d1.Lifecycle = lc
	k := 0
	for cycle := 0; cycle < 30; cycle++ {
		d1.AddBatch(drift.Docs(k, k+32))
		k += 32
		d1.Flush()
		checkMineDF(t, fmt.Sprintf("d1 cycle %d", cycle), d1)
	}
	d1.AddBatch(drift.Docs(k, k+10)) // leave a pending buffer in the snapshot
	k += 10
	if st := d1.Stats(); st.Evicted+st.AgedOut+st.Merged == 0 {
		t.Fatal("no lifecycle events before the snapshot — test would prove nothing")
	}
	if d1.mine == nil || len(d1.mine.docs) == 0 {
		t.Fatal("no retained window before the snapshot")
	}

	var buf bytes.Buffer
	if err := d1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()

	load := func() *Detector {
		d := New(core.Options{})
		d.BatchSize = 1 << 30
		d.Lifecycle = lc
		if err := d.Load(strings.NewReader(saved)); err != nil {
			t.Fatal(err)
		}
		return d
	}
	d2, d3 := load(), load()

	var buf2 bytes.Buffer
	if err := d2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != saved {
		t.Fatal("save → load → save is not a fixed point with lifecycle state")
	}
	if d2.liveCount != d1.liveCount || d2.anyDead != d1.anyDead {
		t.Fatalf("live %d/%v restored as %d/%v", d1.liveCount, d1.anyDead, d2.liveCount, d2.anyDead)
	}
	if !reflect.DeepEqual(d2.dead, d1.dead) || !reflect.DeepEqual(d2.forward, d1.forward) ||
		!reflect.DeepEqual(d2.lastMatch, d1.lastMatch) {
		t.Fatal("lifecycle markers not restored")
	}
	if d2.Pending() != d1.Pending() {
		t.Fatalf("pending %d restored as %d", d1.Pending(), d2.Pending())
	}
	if len(d2.mine.docs) != len(d1.mine.docs) {
		t.Fatalf("retained window %d restored as %d", len(d1.mine.docs), len(d2.mine.docs))
	}
	checkIndex(t, "d2 after load", d2)
	checkMineDF(t, "d2 after load", d2)

	// Two restores of the same state must stay byte-identical through
	// further churn, including new lifecycle retirements.
	for cycle := 0; cycle < 10; cycle++ {
		docs := drift.Docs(k, k+32)
		k += 32
		d2.AddBatch(docs)
		d3.AddBatch(docs)
		d2.Flush()
		d3.Flush()
		checkMineDF(t, fmt.Sprintf("d2 cycle %d", cycle), d2)
		checkMineDF(t, fmt.Sprintf("d3 cycle %d", cycle), d3)
	}
	compareDetectors(t, "restored twins after churn", d2, d3)
	if d2.NumLive() > 12 {
		t.Fatalf("cap violated after restore: live = %d", d2.NumLive())
	}
}
