package stream

import (
	"math/rand"
	"testing"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
)

// TestStreamScaleSmoke bulk-loads a 1k-template multi-market set through
// Register and checks, probe by probe, that the tiered index — bucket
// skips, saturated-token credits (the shared serving words are carried by
// hundreds of templates), best-first ordering, and the bit-parallel
// refinement — returns exactly the reference scan's verdict while
// examining a small fraction of the template set. This keeps the scale
// configuration of the matcher exercised in tier-1 `go test`, not only
// under `go test -bench StreamAddScale`.
func TestStreamScaleSmoke(t *testing.T) {
	set := datagen.ScaleTemplates(datagen.ScaleConfig{Seed: 7, Templates: 1000})
	d := New(core.Options{})
	d.BatchSize = 1 << 30
	for i, tmpl := range set.Templates {
		ti, err := d.Register(tmpl.Words, tmpl.Wild)
		if err != nil {
			t.Fatal(err)
		}
		if ti != i {
			t.Fatalf("Register returned index %d, want %d", ti, i)
		}
	}
	checkIndex(t, "after bulk load", d)

	rng := rand.New(rand.NewSource(11))
	matched := 0
	for k := 0; k < 120; k++ {
		var text string
		if k%4 == 3 {
			text = set.Noise(rng)
		} else {
			text = set.Probe(rng, rng.Intn(len(set.Templates)))
		}
		toks := d.vocab.Encode(d.tk.Tokens(text))
		verdict := d.match(toks, d.vocab.Size(), &d.sc, &d.stats)
		if ref := referenceMatch(d, toks); verdict != ref {
			t.Fatalf("probe %d: tiered verdict %d != reference %d", k, verdict, ref)
		}
		if verdict >= 0 {
			matched++
		}
		d.apply(text, toks, verdict)
	}
	if matched < 60 {
		t.Fatalf("only %d/120 probes matched — generator and matcher out of tune", matched)
	}

	st := d.Stats()
	if st.DPPruned+st.DPRuns != st.Candidates {
		t.Fatalf("pruned %d + runs %d != candidates %d", st.DPPruned, st.DPRuns, st.Candidates)
	}
	// Sublinearity in miniature: at 1000 templates a probe must reach the
	// per-candidate scan with far fewer than numT survivors on average.
	if st.Examined*10 > st.Candidates {
		t.Fatalf("examined %d of %d candidates — tiered pruning not engaging", st.Examined, st.Candidates)
	}
	hist := 0
	for _, c := range st.CandHist {
		hist += c
	}
	if hist != st.Probes {
		t.Fatalf("histogram mass %d != probes %d", hist, st.Probes)
	}
	if st.BitDPRuns == 0 {
		t.Fatal("bit-parallel refinement never ran")
	}
	// Banded-DP and bitmap-skip accounting: every banded alignment is one
	// of the DP runs, exact-distance-seeded bands never widen, and the
	// bitmap skips plus postings walks partition the probes exactly.
	if st.BandRuns > st.DPRuns {
		t.Fatalf("band runs %d > DP runs %d", st.BandRuns, st.DPRuns)
	}
	if st.BandRetries != 0 {
		t.Fatalf("%d band retries on exact-seeded bands", st.BandRetries)
	}
	if st.BitmapSkips+st.PostingsWalks != st.Probes {
		t.Fatalf("bitmap skips %d + walks %d != probes %d",
			st.BitmapSkips, st.PostingsWalks, st.Probes)
	}
	if st.WalkNs < 0 || st.BoundNs < 0 || st.BitDPNs < 0 || st.ExactDPNs < 0 {
		t.Fatalf("negative stage timing: walk %d bound %d bitdp %d exactdp %d",
			st.WalkNs, st.BoundNs, st.BitDPNs, st.ExactDPNs)
	}
}

// TestScaleRaceShort is the trimmed scale exercise `make race-short`
// leans on: a 1k-template bulk load followed by batched parallel
// matching (Workers: 4) over mid-batch flush boundaries, so the race
// detector sweeps the arena and tiered-index paths — the pooled
// matchScratch, the arena-backed eq-token views, and the shared bucket
// postings — under real goroutine concurrency. It is sized to run under
// -short; the full-scale sweeps stay behind `go test -bench StreamAddScale`.
func TestScaleRaceShort(t *testing.T) {
	set := datagen.ScaleTemplates(datagen.ScaleConfig{Seed: 13, Templates: 1000})
	d := New(core.Options{Workers: 4})
	d.BatchSize = 48
	for _, tmpl := range set.Templates {
		if _, err := d.Register(tmpl.Words, tmpl.Wild); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(17))
	docs := make([]string, 0, 192)
	for k := 0; k < cap(docs); k++ {
		if k%4 == 3 {
			docs = append(docs, set.Noise(rng))
		} else {
			docs = append(docs, set.Probe(rng, rng.Intn(len(set.Templates))))
		}
	}
	matched := 0
	for lo := 0; lo < len(docs); lo += 64 {
		for _, v := range d.AddBatch(docs[lo : lo+64]) {
			if v >= 0 {
				matched++
			}
		}
	}
	d.Flush()
	if matched == 0 {
		t.Fatal("no probe matched — the parallel matcher was never exercised")
	}
	checkIndex(t, "after race sweep", d)
}
