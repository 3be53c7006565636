package stream

import (
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
// selection rule. Over an empty window with every document pending, the
// miner's selections must equal TopPhraseIDs' at any worker count, on
// the same token streams: a multilingual tweet corpus and a stretch of
// the drift stream, under default and non-default phrase options.
func TestMinerSelectionMatchesBatch(t *testing.T) {
	tw := datagen.Twitter(datagen.TwitterConfig{Seed: 3, GenuineAccounts: 30, BotAccounts: 30,
		TweetsPerAccountMin: 10, TweetsPerAccountMax: 10})
	corpora := map[string][]string{
		"twitter": tw.Texts(),
		"drift":   datagen.NewDriftStream(datagen.DriftConfig{Seed: 1}).Docs(0, 1500),
	}
	var tk tokenize.Tokenizer
	for name, texts := range corpora {
		vocab := tokenize.NewVocab()
		docs := make([][]int, len(texts))
		for i, w := range tk.All(texts, 1) {
			docs[i] = vocab.Encode(w)
		}
		for _, opt := range []core.Options{{}, {MaxNgram: 3, TopFraction: 0.25}} {
			ex := New(opt).mineExtractor()
			var ms mineState
			got := ms.admit(docs, len(docs), ex, vocab)
			for _, workers := range []int{1, 2, 5} {
				e := *ex
				e.Workers = workers
				want := e.TopPhraseIDs(docs, vocab).Top
				for i := range docs {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("%s maxN=%d frac=%v workers=%d: doc %d: miner selected %x, batch %x",
							name, opt.MaxNgram, opt.TopFraction, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}
