package stream

import (
	"sort"
	"testing"
	"time"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
)

// BenchmarkStreamLifecycleFlush measures steady-state continuous mining
// on an unbounded drifting-campaign stream (datagen.DriftStream): one
// op is one ingest batch plus its flush, with the full lifecycle on —
// template cap, TTL, MDL merge, and the incremental miner's cross-flush
// window, which re-clusters only the components a batch touches.
// Reported beyond ns/op and B/op (the RSS proxy): the flush-latency
// p50/p99 (flush-p50-ns / flush-p99-ns) and the steady-state
// live-template count, which the cap must hold flat no matter how long
// the stream runs.
func BenchmarkStreamLifecycleFlush(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		const batch = 256
		drift := datagen.NewDriftStream(datagen.DriftConfig{Seed: 42, Active: 10, ChurnEvery: 512})
		d := New(core.Options{})
		d.BatchSize = 1 << 30
		d.Lifecycle = Lifecycle{MaxTemplates: 64, TTL: 50000, Merge: true, Incremental: true}

		// Warm to steady state: enough cycles to fill the retained window
		// and the template cap, so b.N measures the flat regime.
		k := 0
		for w := 0; w < 12; w++ {
			d.AddBatch(drift.Docs(k, k+batch))
			k += batch
			d.Flush()
		}

		lat := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			docs := drift.Docs(k, k+batch)
			k += batch
			b.StartTimer()
			d.AddBatch(docs)
			t0 := time.Now()
			d.Flush()
			lat = append(lat, time.Since(t0))
		}
		b.StopTimer()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)/2]), "flush-p50-ns")
		b.ReportMetric(float64(lat[len(lat)*99/100]), "flush-p99-ns")
		b.ReportMetric(float64(d.NumLive()), "live-templates")
		b.ReportMetric(float64(len(d.templates)), "template-slots")
	})

	// mine-drift is the daemon's mine-drift shape: DriftConfig defaults,
	// BatchSize 256 with flushes firing inside AddBatch, 16-document
	// calls. One op is 256 documents (16 calls), generated before the
	// timer starts. flush-p50-ns is the median of the calls that ran a
	// mining pass, so it includes that call's matching of ≤16 documents.
	b.Run("mine-drift", func(b *testing.B) {
		const call, perOp = 16, 256
		drift := datagen.NewDriftStream(datagen.DriftConfig{Seed: 42})
		d := New(core.Options{})
		d.BatchSize = 256
		d.Lifecycle = Lifecycle{MaxTemplates: 64, TTL: 50000, Merge: true, Incremental: true}
		k := 0
		for k < 4096 {
			d.AddBatch(drift.Docs(k, k+call))
			k += call
		}

		var lat []time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			docs := drift.Docs(k, k+perOp)
			k += perOp
			b.StartTimer()
			for lo := 0; lo < perOp; lo += call {
				flushes := d.stats.Flushes
				t0 := time.Now()
				d.AddBatch(docs[lo : lo+call])
				if d.stats.Flushes != flushes {
					lat = append(lat, time.Since(t0))
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perOp), "ns/doc")
		if len(lat) > 0 {
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)/2]), "flush-p50-ns")
		}
		b.ReportMetric(float64(d.NumLive()), "live-templates")
	})
}
