package stream

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
	"infoshield/internal/tokenize"
)

// driftDetector is a detector in the mine-drift configuration: BatchSize
// 256, a 64-template cap, TTL 50000, merge and incremental mining, with
// the vocabulary compacted from floor words on.
func driftDetector(floor int) *Detector {
	d := New(core.Options{})
	d.BatchSize = 256
	d.Lifecycle = Lifecycle{MaxTemplates: 64, TTL: 50000, Merge: true, Incremental: true}
	d.compactFloor = floor
	return d
}

// saveBytes returns d's Save output.
func saveBytes(t testing.TB, d *Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restarted returns a detector with d's settings loaded from d's Save
// bytes: what a daemon restarted from a snapshot of d runs.
func restarted(t testing.TB, d *Detector) *Detector {
	t.Helper()
	fresh := New(d.Options)
	fresh.BatchSize, fresh.Lifecycle, fresh.compactFloor = d.BatchSize, d.Lifecycle, d.compactFloor
	if err := fresh.Load(bytes.NewReader(saveBytes(t, d))); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestCompactRestartEquivalence pins vocabulary compaction to Save→Load.
// Detector A compacts in place from 4,096 words on; detector B never
// compacts, but is saved and reloaded right after every document on
// which A compacted. Their verdicts must agree after every Add, and at
// every compaction their vocabularies (word for word, id for id), their
// Save bytes and A's own Save→Load must agree; A's index and window DF
// table must equal a rebuild. A Load then renumbers nothing a
// compaction has not already renumbered.
func TestCompactRestartEquivalence(t *testing.T) {
	const n = 20000
	docs := datagen.NewDriftStream(datagen.DriftConfig{Seed: 2}).Docs(0, n)
	a, b := driftDetector(1<<12), driftDetector(math.MaxInt)
	for i, doc := range docs {
		compactions := a.stats.VocabCompactions
		ida, idb := a.Add(doc), b.Add(doc)
		if ida != idb {
			t.Fatalf("doc %d: ids %d vs %d", i, ida, idb)
		}
		if a.stats.VocabCompactions != compactions {
			b = restarted(t, b)
			label := fmt.Sprintf("compaction %d at doc %d", a.stats.VocabCompactions, i)
			if got, want := vocabWords(b), vocabWords(a); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: restarted vocabulary of %d words differs from the compacted one of %d", label, len(got), len(want))
			}
			if got, want := vocabWords(restarted(t, a)), vocabWords(a); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Save→Load renumbered a just-compacted vocabulary", label)
			}
			if !bytes.Equal(saveBytes(t, a), saveBytes(t, b)) {
				t.Fatalf("%s: Save bytes differ", label)
			}
			checkIndex(t, label, a)
			checkMineDF(t, label, a)
		}
		for id := max(0, ida-a.BatchSize); id <= ida; id++ {
			if av, bv := a.Assignment(id), b.Assignment(id); av != bv {
				t.Fatalf("after doc %d: document %d %+v vs %+v", i, id, av, bv)
			}
		}
	}
	if a.stats.VocabCompactions < 2 {
		t.Fatalf("%d compactions: the stream no longer exercises compaction", a.stats.VocabCompactions)
	}
	for id := range n {
		if av, bv := a.Assignment(id), b.Assignment(id); av != bv {
			t.Fatalf("final: document %d %+v vs %+v", id, av, bv)
		}
	}
	if !bytes.Equal(saveBytes(t, a), saveBytes(t, b)) {
		t.Fatal("final Save bytes differ")
	}
	t.Logf("%d compactions dropped %d words; vocabulary %d", a.stats.VocabCompactions, a.stats.VocabDropped, a.vocab.Size())
}

// TestCompactVerdictStability streams 150k drift documents (seed 1)
// through the mine-drift configuration with the default compaction
// floor, which the stream's vocabulary passes several times. The verdict
// every call returned and every document's final assignment must hash
// to the values a detector that never compacted gave on this stream: V
// falling to the live word count at each compaction moves no decision.
// Tombstones compact a detector whatever its floor, so the never-
// compacting side is pinned as its hashes.
func TestCompactVerdictStability(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 150k documents")
	}
	const n, call = 150000, 16
	const v0, f0 uint64 = 0x863e91e167d336a, 0xf5bba7b9ee9670b6 // never compacting
	docs := datagen.NewDriftStream(datagen.DriftConfig{Seed: 1}).Docs(0, n)
	d := driftDetector(defaultCompactFloor)
	h := fnv.New64a()
	var b []byte
	for lo := 0; lo < n; lo += call {
		for _, id := range d.AddBatch(docs[lo : lo+call]) {
			b = appendAssignment(b[:0], id, d.Assignment(id))
			_, _ = h.Write(b)
		}
	}
	f := fnv.New64a()
	for id := range n {
		b = appendAssignment(b[:0], id, d.Assignment(id))
		_, _ = f.Write(b)
	}
	t.Logf("%d compactions, vocabulary %d", d.stats.VocabCompactions, d.vocab.Size())
	if d.stats.VocabCompactions == 0 {
		t.Fatal("no compaction ran")
	}
	if v1, f1 := h.Sum64(), f.Sum64(); v1 != v0 || f1 != f0 {
		t.Fatalf("(verdicts, final) hashes %#x, %#x with compaction, %#x, %#x without", v1, f1, v0, f0)
	}
}

// TestLifecycleOffByteIdentical streams past a lowered compaction floor
// with the zero Lifecycle. Nothing retires and nothing compacts: the
// vocabulary holds every distinct word seen, and verdicts and Save bytes
// equal those of a detector whose floor is never reached. This is why
// the workloads that run no lifecycle cannot move with compaction.
func TestLifecycleOffByteIdentical(t *testing.T) {
	texts := append(campaign(20), noise(300, 71)...)
	texts = append(append(texts, campaign(20)...), noise(300, 72)...)
	low, high := New(core.Options{}), New(core.Options{})
	low.BatchSize, high.BatchSize = 320, 320
	low.compactFloor, high.compactFloor = 64, math.MaxInt
	for lo := 0; lo < len(texts); lo += 7 {
		low.AddBatch(texts[lo:min(lo+7, len(texts))])
		high.AddBatch(texts[lo:min(lo+7, len(texts))])
	}
	low.Flush()
	high.Flush()
	seen := tokenize.NewVocab()
	var tk tokenize.Tokenizer
	for _, text := range texts {
		seen.Encode(tk.Tokens(text))
	}
	if got, want := low.vocab.Size(), seen.Size(); got != want || want <= low.compactFloor {
		t.Fatalf("vocabulary %d, want the %d distinct words seen (floor %d)", got, want, low.compactFloor)
	}
	st := low.Stats().MineStats
	if st.Merged+st.Evicted+st.AgedOut+st.VocabCompactions+st.VocabDropped != 0 || low.NumLive() != low.NumTemplates() {
		t.Fatalf("lifecycle off moved a retirement or compaction counter: %+v", st)
	}
	if low.NumTemplates() == 0 {
		t.Fatal("nothing mined")
	}
	for id := range len(texts) {
		if a, b := low.Assignment(id), high.Assignment(id); a != b {
			t.Fatalf("document %d: %+v vs %+v", id, a, b)
		}
	}
	if !bytes.Equal(saveBytes(t, low), saveBytes(t, high)) {
		t.Fatal("Save bytes differ")
	}
}

// TestRebuildKeepsTombstoneDocCount evicts enough templates to rebuild
// the index and requires every template's TemplateInfo DocCount and Dead
// mark to be those before the rebuild (live patterns unchanged too), as
// Load restores them. Save bytes must not depend on whether a rebuild
// ran: they equal those of a twin whose templates were retired without
// one, and Save→Load→Save.
func TestRebuildKeepsTombstoneDocCount(t *testing.T) {
	const evicted = derivedTemplates - 3
	build := func() *Detector {
		d := New(core.Options{})
		d.Lifecycle = Lifecycle{MaxTemplates: 3}
		for i := 0; i < derivedTemplates; i++ {
			words := []string{fmt.Sprintf("m%d", i), "alpha", "beta", fmt.Sprintf("w%d", i%5)}
			ti, err := d.Register(words, make([]bool, len(words)))
			if err != nil {
				t.Fatal(err)
			}
			d.templates[ti].DocCount = 1 + i%7
			d.lastMatch[ti] = i
		}
		return d
	}
	d, twin := build(), build()
	before := make([]TemplateInfo, d.NumTemplates())
	for ti := range before {
		before[ti] = d.TemplateInfo(ti)
	}
	d.lifecyclePass(nil)
	if d.stats.Evicted != evicted || d.stats.VocabCompactions != 1 {
		t.Fatalf("%d evicted, %d compactions: no rebuild ran", d.stats.Evicted, d.stats.VocabCompactions)
	}
	for ti, b := range before {
		got := d.TemplateInfo(ti)
		if got.DocCount != b.DocCount || got.Dead != (ti < evicted) || !got.Dead && got != b {
			t.Fatalf("template %d: %+v after the rebuild, %+v before", ti, got, b)
		}
	}
	for ti := range evicted {
		twin.kill(ti, -1) // the least recently matched, as the cap evicts them
	}
	once := saveBytes(t, d)
	if unrebuilt := saveBytes(t, twin); !bytes.Equal(once, unrebuilt) {
		t.Fatalf("Save depends on the rebuild:\n%s\nvs\n%s", once, unrebuilt)
	}
	if twice := saveBytes(t, restarted(t, d)); !bytes.Equal(once, twice) {
		t.Fatalf("Save is not Save→Load→Save:\n%s\nvs\n%s", once, twice)
	}
}

// BenchmarkVocabCompact measures one vocabulary compaction of a
// mine-drift detector holding 64 live templates and a full retained
// window (retainBatches×256 = 2,048 documents or more, as a mining pass
// leaves it): capture, the fresh vocabulary, re-registering the
// templates and re-admitting the window. The drift stream alone keeps
// the window short of full, so noise-only drift documents top it up once
// the cap is reached. Each op compacts the same state, so from the
// second op on the capture's id table spans only the live words.
func BenchmarkVocabCompact(b *testing.B) {
	drift := datagen.NewDriftStream(datagen.DriftConfig{Seed: 1})
	noise := datagen.NewDriftStream(datagen.DriftConfig{Seed: 2, NoisePer: 1})
	d := driftDetector(math.MaxInt)
	k := 0
	for ; d.NumLive() < 64; k += 16 {
		d.AddBatch(drift.Docs(k, k+16))
	}
	for ; len(d.mine.docs) < retainBatches*d.BatchSize; k += 16 {
		d.AddBatch(noise.Docs(k, k+16))
	}
	if d.NumLive() != 64 {
		b.Fatalf("%d live templates", d.NumLive())
	}
	words := d.vocab.Size()
	b.ReportAllocs()
	for b.Loop() {
		d.compact()
	}
	b.ReportMetric(float64(words), "words-before")
	b.ReportMetric(float64(d.vocab.Size()), "words-kept")
	b.ReportMetric(float64(len(d.mine.docs)), "window-docs")
}
