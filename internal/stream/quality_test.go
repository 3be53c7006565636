package stream

import (
	"testing"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
	"infoshield/internal/metrics"
)

// driftQuality streams the first n documents of datagen.DriftStream
// through the mine-drift configuration — BatchSize 256, a 64-template
// cap, TTL 50000, merge, 16-document AddBatch calls — and scores every
// document's final assignment against the stream's labels: precision and
// F1 of "belongs to a template" against "belongs to a campaign", and the
// ARI of templates against campaigns (noise and unassigned documents are
// singletons).
func driftQuality(seed int64, n int, incremental bool) (precision, f1, ari float64) {
	s := datagen.NewDriftStream(datagen.DriftConfig{Seed: seed})
	docs := s.Docs(0, n)
	d := New(core.Options{})
	d.BatchSize = 256
	d.Lifecycle = Lifecycle{MaxTemplates: 64, TTL: 50000, Merge: true, Incremental: incremental}
	for lo := 0; lo < n; lo += 16 {
		d.AddBatch(docs[lo:min(lo+16, n)])
	}
	pred, truth := make([]bool, n), make([]bool, n)
	tmpl, camp := make([]int, n), make([]int, n)
	for k := range n {
		tmpl[k], camp[k] = d.Assignment(k).Template, s.Label(k)
		pred[k], truth[k] = tmpl[k] >= 0, camp[k] >= 0
	}
	c := metrics.NewConfusion(pred, truth)
	return c.Precision(), c.F1(), metrics.ARI(tmpl, camp)
}

// TestIncrementalDriftQuality scores the streaming miner against the
// drift stream's ground truth, on the mine-drift benchmark's shape. The
// incremental floors sit under the scores the shared selection rule
// reaches (F1 0.970/0.989/0.960, ARI 0.967/0.986/0.957 for seeds 1/2/3);
// the miner's former (position, length, hash) tie-break scored F1
// 0.939/0.957/0.908 and ARI 0.941/0.959/0.902, under both floors on seeds
// 1 and 3.
//
// Non-incremental streaming (each flush mines its buffer alone) scores
// lower (F1 0.906/0.911/0.896, ARI 0.894/0.893/0.875), because a campaign
// member that misses its flush's cluster is never revisited. That known
// gap has its own, lower floors, and is skipped under -short.
func TestIncrementalDriftQuality(t *testing.T) {
	const (
		n       = 20000
		minPrec = 0.99
		minF1   = 0.95
		minARI  = 0.95
		// Non-incremental floors.
		minF1Batch  = 0.88
		minARIBatch = 0.86
	)
	for seed := int64(1); seed <= 3; seed++ {
		p, f1, ari := driftQuality(seed, n, true)
		t.Logf("seed %d incremental: precision %.3f F1 %.3f ARI %.3f", seed, p, f1, ari)
		if p < minPrec || f1 < minF1 || ari < minARI {
			t.Errorf("seed %d: precision %.3f F1 %.3f ARI %.3f, want at least %.2f / %.2f / %.2f",
				seed, p, f1, ari, minPrec, minF1, minARI)
		}
		if !testing.Short() {
			p, f1, ari = driftQuality(seed, n, false)
			t.Logf("seed %d non-incremental: precision %.3f F1 %.3f ARI %.3f", seed, p, f1, ari)
			if p < minPrec || f1 < minF1Batch || ari < minARIBatch {
				t.Errorf("seed %d non-incremental: precision %.3f F1 %.3f ARI %.3f, want at least %.2f / %.2f / %.2f",
					seed, p, f1, ari, minPrec, minF1Batch, minARIBatch)
			}
		}
	}
}
