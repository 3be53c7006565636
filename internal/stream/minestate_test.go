package stream

import (
	"fmt"
	"slices"
	"testing"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
	"infoshield/internal/tokenize"
)

// checkMineDF requires the miner's window DF table to equal a fresh count
// over the window documents' dist lists. The table's own probing
// invariants are tested with it, in internal/tfidf.
func checkMineDF(t *testing.T, label string, d *Detector) {
	t.Helper()
	if d.mine == nil {
		return
	}
	want := make(map[uint64]int32)
	for i := range d.mine.docs {
		for _, h := range d.mine.docs[i].dist {
			want[h]++
		}
	}
	if got := d.mine.df.Len(); got != len(want) {
		t.Fatalf("%s: window DF holds %d phrases, want %d", label, got, len(want))
	}
	for h, n := range want {
		if got := d.mine.df.Get(h); got != n {
			t.Fatalf("%s: window DF of %#x = %d, want %d", label, h, got, n)
		}
	}
}

// TestMinerSelectionMatchesBatch: the miner and batch Coarse share one
// admission call. Over an empty window with every document pending, an
// incremental flush must leave each retained document with the selection
// core.Coarse makes for it, at any worker count, on the same token
// streams: a multilingual tweet corpus and a stretch of the drift stream,
// under default and non-default phrase options.
func TestMinerSelectionMatchesBatch(t *testing.T) {
	tw := datagen.Twitter(datagen.TwitterConfig{Seed: 3, GenuineAccounts: 30, BotAccounts: 30,
		TweetsPerAccountMin: 10, TweetsPerAccountMax: 10})
	corpora := map[string][]string{
		"twitter": tw.Texts(),
		"drift":   datagen.NewDriftStream(datagen.DriftConfig{Seed: 1}).Docs(0, 1500),
	}
	var tk tokenize.Tokenizer
	for name, texts := range corpora {
		words := tk.All(texts, 1)
		for _, opt := range []core.Options{{}, {MaxNgram: 3, TopFraction: 0.25}} {
			_, want := core.Coarse(words, opt)
			for _, workers := range []int{1, 2, 5} {
				opt.Workers = workers
				d := New(opt)
				d.BatchSize = len(texts) + 1
				d.Lifecycle.Incremental = true
				d.AddBatch(texts)
				d.Flush()
				label := fmt.Sprintf("%s maxN=%d frac=%v workers=%d", name, opt.MaxNgram, opt.TopFraction, workers)
				if len(d.mine.docs) == 0 {
					t.Fatalf("%s: the flush retained no document", label)
				}
				for _, doc := range d.mine.docs {
					if !slices.Equal(doc.sel, want[doc.id]) {
						t.Fatalf("%s: doc %d: miner selected %x, batch %x", label, doc.id, doc.sel, want[doc.id])
					}
				}
				checkMineDF(t, label, d)
			}
		}
	}
}
