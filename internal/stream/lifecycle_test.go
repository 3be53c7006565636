package stream

import (
	"bytes"
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

// checkFlushMatchesRun fails unless the templates d registered from
// index base on, and the assignments of the flushed documents (texts,
// with ids in lockstep), are exactly what core.Run mines from the raw
// texts: same patterns in the same order, same words at every constant
// and slot position, same member documents.
func checkFlushMatchesRun(t *testing.T, label string, d *Detector, base int, texts []string, ids []int) {
	t.Helper()
	res := core.Run(texts, d.Options)
	member := make([]int, len(texts))
	for i := range member {
		member[i] = -1
	}
	ti := base
	for ci := range res.Clusters {
		for _, tr := range res.Clusters[ci].Templates {
			if ti >= d.NumTemplates() {
				t.Fatalf("%s: core.Run mined more templates than the flush (%d)", label, d.NumTemplates()-base)
			}
			got := &d.templates[ti]
			if !reflect.DeepEqual(got.Pattern, tr.Template) || len(got.Tokens) != tr.Template.Len() {
				t.Fatalf("%s: template %d pattern %+v, core.Run %+v", label, ti, got.Pattern, tr.Template)
			}
			for i, tid := range tr.Template.TokenIDs {
				if got.Wild[i] != tr.Template.IsSlot[i] {
					t.Fatalf("%s: template %d position %d: wild %v", label, ti, i, got.Wild[i])
				}
				if tid < 0 {
					continue
				}
				if w, want := d.vocab.Word(got.Tokens[i]), res.Vocab.Word(tid); w != want {
					t.Fatalf("%s: template %d position %d: %q, core.Run %q", label, ti, i, w, want)
				}
			}
			if got.DocCount != len(tr.Docs) {
				t.Fatalf("%s: template %d DocCount %d, core.Run %d", label, ti, got.DocCount, len(tr.Docs))
			}
			for _, local := range tr.Docs {
				member[local] = ti
			}
			ti++
		}
	}
	if ti != d.NumTemplates() {
		t.Fatalf("%s: flush mined %d templates, core.Run %d", label, d.NumTemplates()-base, ti-base)
	}
	for local, id := range ids {
		if a := d.Assignment(id); a.Template != member[local] || a.Pending {
			t.Fatalf("%s: doc %d: %+v, core.Run template %d", label, id, a, member[local])
		}
	}
}

// TestFlushTokenReuseByteIdentical is the gate for the no-re-tokenize
// flush: mining from the token streams buffered at ingest must give
// exactly the templates and assignments core.Run mines from the raw
// texts, at every worker count. Each AddBatch call ends at or before the
// next flush point, so a flush can only fire on a call's last document,
// when the buffer is the prior pending set plus the whole call.
func TestFlushTokenReuseByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			docs := randomStreamCorpus(rng, 300)
			d := New(core.Options{Workers: workers})
			d.BatchSize = 64

			flushes := 0
			for lo := 0; lo < len(docs); {
				hi := min(lo+48, len(docs), lo+d.BatchSize-d.Pending())
				texts := append(slices.Clone(d.pendingTexts), docs[lo:hi]...)
				ids := slices.Clone(d.pendingIDs)
				base, before := d.NumTemplates(), d.Stats().Flushes
				ids = append(ids, d.AddBatch(docs[lo:hi])...)
				if d.Stats().Flushes != before {
					flushes++
					checkFlushMatchesRun(t, fmt.Sprintf("workers=%d seed=%d flush %d", workers, seed, flushes), d, base, texts, ids)
				}
				lo = hi
			}
			texts, ids, base := slices.Clone(d.pendingTexts), slices.Clone(d.pendingIDs), d.NumTemplates()
			d.Flush()
			checkFlushMatchesRun(t, fmt.Sprintf("workers=%d seed=%d final flush", workers, seed), d, base, texts, ids)
			if flushes == 0 || d.NumTemplates() == 0 {
				t.Fatalf("workers=%d seed=%d: %d auto-flushes mined %d templates — the gate proves nothing",
					workers, seed, flushes, d.NumTemplates())
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
	if got := d.Stats().TemplatesAged; got == 0 {
		t.Fatal("TemplatesAged not counted")
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
	if d.Stats().TemplatesMerged != 1 {
		t.Fatalf("TemplatesMerged = %d", d.Stats().TemplatesMerged)
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
	if d.Stats().TemplatesEvicted != 120 {
		t.Fatalf("TemplatesEvicted = %d, want 120", d.Stats().TemplatesEvicted)
	}
	// All recency clocks and DocCounts tied, so eviction falls back to
	// index order: 0..119 die, 120..179 survive — and 120 tombstones
	// against 60 live triggers the compaction.
	for ti := 0; ti < 120; ti++ {
		if !d.isDead(ti) {
			t.Fatalf("template %d should be evicted", ti)
		}
	}
	if d.tombSinceRebuild != 0 {
		t.Fatalf("tombSinceRebuild = %d, rebuild did not run", d.tombSinceRebuild)
	}
	checkIndex(t, "after rebuild", d)

	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 80; k++ {
		ti := rng.Intn(180)
		toks := d.vocab.Encode(d.tk.Tokens(set.Probe(rng, ti)))
		got := d.match(toks, d.vocab.Size(), &d.sc, &d.stats)
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
	if st.TemplatesMined <= 16 {
		t.Fatalf("only %d templates mined over %d cycles — drift generator not churning", st.TemplatesMined, cycles)
	}
	if st.TemplatesEvicted+st.TemplatesAged+st.TemplatesMerged == 0 {
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
		got := d.match(toks, d.vocab.Size(), &d.sc, &d.stats)
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
	if st := d.Stats(); st.MineReusedDocs == 0 {
		t.Fatal("MineReusedDocs = 0 — the retained window was never re-clustered")
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
	if st.MineClusteredDocs >= wholeWindow {
		t.Fatalf("touched-only clustered %d docs, whole-window re-clustering %d — no work saved",
			st.MineClusteredDocs, wholeWindow)
	}
	if st.MineReusedDocs == 0 {
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
	if st := d1.Stats(); st.TemplatesEvicted+st.TemplatesAged+st.TemplatesMerged == 0 {
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
