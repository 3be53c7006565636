package infoshield

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"infoshield/internal/datagen"
)

// skewedTexts builds the cluster-size distribution the paper's
// Cluster-Trafficking data exhibits (Fig. 3): one mega spam campaign that
// dominates fine-pass wall clock, many small campaigns, and unclusterable
// background noise. Shared by the determinism/goroutine tests and the
// BenchmarkFineSkewed straggler benchmark.
func skewedTexts() []string {
	var texts []string
	for i := 0; i < 260; i++ {
		texts = append(texts, fmt.Sprintf(
			"mega sale best deals call now 555-01%02d visit mega.example promo%d today", i%100, i))
	}
	for g := 0; g < 60; g++ {
		for k := 0; k < 4; k++ {
			texts = append(texts, fmt.Sprintf(
				"alpha%d beta%d gamma%d delta%d epsilon%d offer %d ships fast", g, g, g, g, g, k))
		}
	}
	for i := 0; i < 40; i++ {
		texts = append(texts, fmt.Sprintf(
			"bg%da bg%db bg%dc bg%dd bg%de bg%df bg%dg bg%dh", i, i, i, i, i, i, i, i))
	}
	return texts
}

// TestDetectWorkersEquivalence is the parallelism correctness gate: on a
// realistic mixed corpus (the Twitter datagen set: genuine accounts plus
// bot campaigns), Detect must produce byte-identical output — clusters,
// templates, slots, costs, and the rendered report — for Workers: 1 and
// Workers: 8. Parallel tokenization, sharded DF counting, parallel
// scoring, and concurrent refinement may change scheduling, never
// results.
func TestDetectWorkersEquivalence(t *testing.T) {
	cfg := datagen.TwitterConfig{Seed: 1, GenuineAccounts: 25, BotAccounts: 25}
	if testing.Short() {
		// Keep the gate meaningful but fast under -short (the race-enabled
		// CI leg runs it this way); the full corpus runs in the normal leg.
		cfg.GenuineAccounts, cfg.BotAccounts = 8, 8
	}
	c := datagen.Twitter(cfg)
	texts := c.Texts()

	ref := Detect(texts, Config{Workers: 1})
	var refText bytes.Buffer
	ref.WriteText(&refText)

	got := Detect(texts, Config{Workers: 8})

	// Public surface: clusters with templates, slot counts, doc sets, and
	// the cost-derived compression diagnostics.
	if !reflect.DeepEqual(got.Clusters(), ref.Clusters()) {
		t.Error("Clusters() differ between Workers:1 and Workers:8")
	}
	if !reflect.DeepEqual(got.DocTemplate(), ref.DocTemplate()) {
		t.Error("DocTemplate() differs between Workers:1 and Workers:8")
	}
	if got.NumTemplates() != ref.NumTemplates() || got.VocabSize() != ref.VocabSize() {
		t.Errorf("counts differ: %d/%d templates, %d/%d vocab",
			got.NumTemplates(), ref.NumTemplates(), got.VocabSize(), ref.VocabSize())
	}

	// Internal surface: raw MDL costs must be bit-identical, not merely
	// close — parallel Coarse feeds Fine the exact same candidates.
	if len(got.res.Clusters) != len(ref.res.Clusters) {
		t.Fatalf("core cluster counts differ: %d vs %d", len(got.res.Clusters), len(ref.res.Clusters))
	}
	for i := range ref.res.Clusters {
		g, r := &got.res.Clusters[i], &ref.res.Clusters[i]
		if g.CostBefore != r.CostBefore || g.CostAfter != r.CostAfter {
			t.Errorf("cluster %d costs differ: (%v,%v) vs (%v,%v)",
				i, g.CostBefore, g.CostAfter, r.CostBefore, r.CostAfter)
		}
		if !reflect.DeepEqual(g.Docs, r.Docs) {
			t.Errorf("cluster %d doc sets differ", i)
		}
	}

	// Rendered report: byte-identical.
	var gotText bytes.Buffer
	got.WriteText(&gotText)
	if !bytes.Equal(gotText.Bytes(), refText.Bytes()) {
		t.Error("WriteText output differs between Workers:1 and Workers:8")
	}
}

// TestDetectSkewedWorkersEquivalence re-runs the byte-identity gate on
// the skewed corpus: one mega-cluster plus ~60 small ones. Pools of 2 and
// 3 workers are smaller than the cluster count, so each worker refines
// many clusters through one reused scratch and the shared cursor runs
// out mid-pool; 8 is the wide pool.
func TestDetectSkewedWorkersEquivalence(t *testing.T) {
	texts := skewedTexts()

	ref := Detect(texts, Config{Workers: 1})
	var refText bytes.Buffer
	ref.WriteText(&refText)
	if ref.NumTemplates() == 0 {
		t.Fatal("skewed corpus produced no templates; the gate is vacuous")
	}
	for _, workers := range []int{2, 3, 8} {
		got := Detect(texts, Config{Workers: workers})
		if !reflect.DeepEqual(got.Clusters(), ref.Clusters()) {
			t.Errorf("Clusters() differ between Workers:1 and Workers:%d on skewed corpus", workers)
		}
		if !reflect.DeepEqual(got.DocTemplate(), ref.DocTemplate()) {
			t.Errorf("DocTemplate() differs between Workers:1 and Workers:%d on skewed corpus", workers)
		}
		var gotText bytes.Buffer
		got.WriteText(&gotText)
		if !bytes.Equal(gotText.Bytes(), refText.Bytes()) {
			t.Errorf("WriteText output differs between Workers:1 and Workers:%d on skewed corpus", workers)
		}
	}
}

// TestFineGoroutineBound is the regression gate for the worker-pool
// rewrite: the old fine stage spawned one goroutine per coarse cluster
// up front (hundreds parked behind a semaphore on corpora like this
// one); the pool must keep the process's goroutine count O(Workers)
// throughout the run.
func TestFineGoroutineBound(t *testing.T) {
	texts := skewedTexts() // ~60 coarse clusters
	const workers = 2
	base := runtime.NumGoroutine()

	var peak atomic.Int64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-done:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	Detect(texts, Config{Workers: workers})
	close(done)
	<-sampled

	// Budget: the pool's `workers` goroutines, the sampler itself, the
	// coarse stage's per-chunk goroutines (at most `workers` at a time),
	// and a little slack for runtime/test goroutines. The old
	// goroutine-per-cluster code peaks ~60 above base here and fails by a
	// wide margin.
	extra := peak.Load() - int64(base)
	if extra > workers+12 {
		t.Errorf("goroutine peak %d above baseline (want <= Workers+12 = %d): fine stage is not O(Workers)",
			extra, workers+12)
	}
}

// TestTimingsPopulated checks the new stage timings are wired through.
func TestTimingsPopulated(t *testing.T) {
	c := datagen.Twitter(datagen.TwitterConfig{Seed: 2, GenuineAccounts: 5, BotAccounts: 5})
	res := Detect(c.Texts(), Config{})
	tm := res.Timings()
	if tm.Coarse <= 0 {
		t.Errorf("Coarse duration not recorded: %+v", tm)
	}
	if tm.Tokenize <= 0 || tm.CoarseExtract <= 0 || tm.CoarseScore <= 0 {
		t.Errorf("stage timings not recorded: %+v", tm)
	}
	if tm.Tokenize+tm.CoarseExtract+tm.CoarseScore+tm.CoarseComponents > tm.Coarse {
		t.Errorf("stages exceed coarse total: %+v", tm)
	}
	if res.NumTemplates() == 0 {
		t.Fatal("corpus produced no templates; fine-stage timing checks are vacuous")
	}
	if tm.FineScreen <= 0 || tm.FineAlign <= 0 || tm.FineConsensus <= 0 || tm.FineSlots <= 0 {
		t.Errorf("fine stage timings not recorded: %+v", tm)
	}
	if tm.Fine <= 0 {
		t.Errorf("fine duration not recorded: %+v", tm)
	}
}
