package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infoshield/internal/core"
	"infoshield/internal/stream"
)

// benchCampaigns mirrors the steady-state regime of BenchmarkStreamAdd:
// hundreds of mined templates, every probe matching one of them.
const benchCampaigns = 220

// benchCommitDelay is the injected per-batch commit delay for the *-slow
// modes: large against per-document match cost, small against a
// benchmark iteration budget.
const benchCommitDelay = 200 * time.Microsecond

var (
	benchSeedOnce  sync.Once
	benchSeedState []byte
	benchSeedErr   error
	benchProbes    []string
)

// benchDetector returns a detector pre-loaded with benchCampaigns mined
// templates. The expensive mining pass runs once per process; every
// sub-benchmark restores the state from a serialized snapshot.
func benchDetector(b *testing.B) *stream.Detector {
	b.Helper()
	benchSeedOnce.Do(func() {
		det := stream.New(core.Options{})
		det.BatchSize = 1 << 30
		var docs []string
		for c := 0; c < benchCampaigns; c++ {
			for i := 0; i < 8; i++ {
				docs = append(docs, fmt.Sprintf(
					"promo%03da alpha%03db beta%03dc gamma%03dd delta%03de epsilon%03df visit site%03d-%02d.example now",
					c, c, c, c, c, c, c, i))
			}
		}
		det.AddBatch(docs)
		det.Flush()
		if got := det.NumTemplates(); got < benchCampaigns*9/10 {
			benchSeedErr = fmt.Errorf("seeded only %d/%d templates", got, benchCampaigns)
			return
		}
		var buf bytes.Buffer
		if benchSeedErr = det.Save(&buf); benchSeedErr != nil {
			return
		}
		benchSeedState = buf.Bytes()
		for c := 0; c < benchCampaigns; c++ {
			benchProbes = append(benchProbes, fmt.Sprintf(
				"promo%03da alpha%03db beta%03dc gamma%03dd delta%03de epsilon%03df visit site%03d-99.example now",
				c, c, c, c, c, c, c))
		}
	})
	if benchSeedErr != nil {
		b.Fatal(benchSeedErr)
	}
	det := stream.New(core.Options{})
	det.BatchSize = 1 << 30
	if err := det.Load(bytes.NewReader(benchSeedState)); err != nil {
		b.Fatal(err)
	}
	return det
}

// benchSharded builds an S-shard serving front end, every shard
// pre-loaded with the seeded template state.
func benchSharded(b *testing.B, shards int, walDir string) *Sharded {
	b.Helper()
	benchDetector(b) // force the one-time seed (and fail early if it breaks)
	sh, err := withoutFsync(NewSharded(ShardedConfig{
		Shards: shards, WALDir: walDir,
		NewDetector: func() *stream.Detector {
			det := stream.New(core.Options{})
			det.BatchSize = 1 << 30
			if err := det.Load(bytes.NewReader(benchSeedState)); err != nil {
				b.Fatal(err)
			}
			return det
		},
	}))
	if err != nil {
		b.Fatal(err)
	}
	return sh
}

// noteSingleCPU flags the blind spot of closed-loop coalescing
// benchmarks on single-core machines: clients cannot overlap the
// leader's commit, so natural batches rarely form and mode=coalesce
// looks like mode=mutex. The *-slow modes inject a per-batch commit
// delay (a WAL device that sleeps, where a WAL fsync would run) so the
// amortization is measurable anyway — clients queue while the leader
// "commits", and docs/batch grows.
func noteSingleCPU(b *testing.B) {
	b.Helper()
	if runtime.GOMAXPROCS(0) == 1 {
		b.Logf("GOMAXPROCS=1: natural batching needs client/leader overlap; trust the mode=*-slow variants (injected %v commit delay) on this machine", benchCommitDelay)
	}
}

// BenchmarkServeCoalesce is the headline contention benchmark: N
// closed-loop clients each submit one matching document at a time.
// mode=mutex serializes clients with a lock around Detector.Add (the
// obvious thread-safe wrapper); mode=coalesce funnels them through the
// leader-follower group commit, where each leader batches whatever
// queued while the previous batch was in flight and pays the parallel
// AddBatch fan-out once per batch instead of once per document. The
// *-slow pair replays the comparison with a synthetic slow commit (giant
// template sets, WAL fsync on spinning disks): the mutex pays the delay
// per document, the group commit per batch.
func BenchmarkServeCoalesce(b *testing.B) {
	noteSingleCPU(b)
	for _, clients := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("mode=mutex/clients=%d", clients), func(b *testing.B) {
			det := benchDetector(b)
			var mu sync.Mutex
			runClients(b, clients, func(text string) {
				mu.Lock()
				det.Add(text)
				mu.Unlock()
			})
		})
		b.Run(fmt.Sprintf("mode=coalesce/clients=%d", clients), func(b *testing.B) {
			det := benchDetector(b)
			c := newShard(det)
			runClients(b, clients, func(text string) { submit(c, []string{text}) })
			b.StopTimer()
			reportDocsPerBatch(b, c)
		})
		b.Run(fmt.Sprintf("mode=mutex-slow/clients=%d", clients), func(b *testing.B) {
			det := benchDetector(b)
			var mu sync.Mutex
			runClients(b, clients, func(text string) {
				mu.Lock()
				det.Add(text)
				time.Sleep(benchCommitDelay) // per-document commit cost
				mu.Unlock()
			})
		})
		b.Run(fmt.Sprintf("mode=coalesce-slow/clients=%d", clients), func(b *testing.B) {
			det := benchDetector(b)
			c := newShard(det)
			c.wal = fakeWAL(writerFunc(func(p []byte) (int, error) {
				time.Sleep(benchCommitDelay) // per-batch commit cost
				return len(p), nil
			}))
			runClients(b, clients, func(text string) { submit(c, []string{text}) })
			b.StopTimer()
			reportDocsPerBatch(b, c)
		})
	}
}

func reportDocsPerBatch(b *testing.B, c *shard) {
	b.Helper()
	if st := c.stats(); st.Serve.Batches > 0 {
		b.ReportMetric(float64(st.Serve.Docs)/float64(st.Serve.Batches), "docs/batch")
	}
}

// BenchmarkServeSharded sweeps the shard count under closed-loop load:
// S independent commit locks (hash routing) against 16 and 64 clients,
// plus a WAL-enabled pair (fsync off, so the measured cost is the
// serialization and write path, not the device). docs/batch aggregates
// across shards.
func BenchmarkServeSharded(b *testing.B) {
	noteSingleCPU(b)
	run := func(b *testing.B, sh *Sharded, clients int) {
		runClients(b, clients, func(text string) {
			if _, err := sh.Submit([]string{text}); err != nil {
				b.Error(err)
			}
		})
		b.StopTimer()
		if st, err := sh.Stats(); err == nil && st.Total.Serve.Batches > 0 {
			b.ReportMetric(st.DocsPerBatch, "docs/batch")
		}
		if err := sh.Close(); err != nil {
			b.Fatal(err)
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, clients := range []int{16, 64} {
			b.Run(fmt.Sprintf("shards=%d/clients=%d", shards, clients), func(b *testing.B) {
				run(b, benchSharded(b, shards, ""), clients)
			})
		}
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d/clients=64/wal=1", shards), func(b *testing.B) {
			run(b, benchSharded(b, shards, b.TempDir()), 64)
		})
	}
}

// runClients drives b.N single-document submissions through `submit`
// from `clients` closed-loop goroutines sharing one atomic work counter.
func runClients(b *testing.B, clients int, submit func(text string)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				submit(benchProbes[int(i)%len(benchProbes)])
			}
		}()
	}
	wg.Wait()
}

// BenchmarkServeHTTP measures end-to-end request cost through the full
// HTTP/JSON stack (routing, body decode, coalesce, encode) with 16
// concurrent keep-alive clients.
func BenchmarkServeHTTP(b *testing.B) {
	sh := benchSharded(b, 1, "")
	ts := httptest.NewServer(NewServer(sh, "").Handler())
	defer func() {
		ts.Close()
		if err := sh.Close(); err != nil {
			b.Error(err)
		}
	}()

	const clients = 16
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients * 2,
		MaxIdleConnsPerHost: clients * 2,
	}}
	bodies := make([]string, len(benchProbes))
	for i, p := range benchProbes {
		bodies[i] = fmt.Sprintf(`{"text":%q}`, p)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				resp, err := client.Post(ts.URL+"/v1/docs", "application/json",
					strings.NewReader(bodies[int(i)%len(bodies)]))
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
}
