package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
	"infoshield/internal/stream"
)

// lifecycleDetector builds shard detectors with the full lifecycle
// enabled: a small cap and TTL so a drifting corpus actually retires
// templates, merge, and incremental mining with its cross-flush window.
func lifecycleDetector(mineBatch int) func() *stream.Detector {
	return func() *stream.Detector {
		det := stream.New(core.Options{})
		det.BatchSize = mineBatch
		det.Lifecycle = stream.Lifecycle{
			MaxTemplates: 6,
			TTL:          400,
			Merge:        true,
			Incremental:  true,
		}
		return det
	}
}

// TestShardedLifecycleWALReplay: every lifecycle decision is a pure
// function of each shard's ingest sequence, so crash replay — state file
// plus write-ahead log, with evictions, age-outs, merges, and the
// incremental miner's retained window in play — must reproduce the
// pre-crash assignments and the post-lifecycle template listing exactly.
func TestShardedLifecycleWALReplay(t *testing.T) {
	for _, tc := range []struct {
		name     string
		S        int
		snapshot bool
	}{
		{"S1-no-snapshot", 1, false},
		{"S2-mid-stream-snapshot", 2, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := ShardedConfig{
				Shards: tc.S, WALDir: dir,
				StatePath:   filepath.Join(dir, "state.json"),
				NewDetector: lifecycleDetector(16),
			}
			sh, err := withoutFsync(NewSharded(cfg))
			if err != nil {
				t.Fatal(err)
			}

			drift := datagen.NewDriftStream(datagen.DriftConfig{Seed: 31, Active: 5, ChurnEvery: 48})
			docs := drift.Docs(0, 420)
			var ids []int
			for i, text := range docs {
				if i == 140 {
					if err := sh.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				if tc.snapshot && i == 280 {
					if _, err := sh.Snapshot(cfg.StatePath); err != nil {
						t.Fatal(err)
					}
				}
				vs, err := sh.Submit([]string{text})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, vs[0].ID)
			}

			st, err := sh.Stats()
			if err != nil {
				t.Fatal(err)
			}
			lcTotal := st.Total.Lifecycle
			if lcTotal.Evicted+lcTotal.AgedOut+lcTotal.Merged == 0 {
				t.Fatal("no lifecycle retirements — the replay would prove nothing")
			}
			if lcTotal.Live > 6*tc.S {
				t.Fatalf("live %d exceeds cap %d", lcTotal.Live, 6*tc.S)
			}
			if st.Total.Templates != lcTotal.Live {
				t.Fatalf("rolled-up Templates %d != rolled-up live %d", st.Total.Templates, lcTotal.Live)
			}

			want := map[int]Verdict{}
			for _, id := range ids {
				v, err := sh.Assignment(id)
				if err != nil {
					t.Fatal(err)
				}
				want[id] = v
			}
			wantTmpls, err := sh.Templates()
			if err != nil {
				t.Fatal(err)
			}
			for _, tm := range wantTmpls {
				if tm.Pattern == "" {
					t.Fatalf("retired template leaked into the listing: %+v", tm)
				}
			}
			// Crash: no drain, no final snapshot.
			if err := sh.Close(); err != nil {
				t.Fatal(err)
			}

			sh2, err := withoutFsync(NewSharded(cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := sh2.Close(); err != nil {
					t.Error(err)
				}
			}()
			for _, id := range ids {
				v, err := sh2.Assignment(id)
				if err != nil {
					t.Fatal(err)
				}
				if v != want[id] {
					t.Fatalf("doc %d after replay: %+v, pre-crash %+v", id, v, want[id])
				}
			}
			gotTmpls, err := sh2.Templates()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTmpls, wantTmpls) {
				t.Fatalf("templates after replay differ:\n%+v\n%+v", gotTmpls, wantTmpls)
			}
			st2, err := sh2.Stats()
			if err != nil {
				t.Fatal(err)
			}
			lc2 := st2.Total.Lifecycle
			if lc2.Live != lcTotal.Live {
				t.Fatalf("live after replay %d, pre-crash %d", lc2.Live, lcTotal.Live)
			}
		})
	}
}

// TestShardedStatsRollup decodes GET /v1/stats on a three-shard daemon
// with the lifecycle on and checks the rolled-up total leaf by leaf
// against the per-shard blocks: every counter (histogram buckets
// included) is the sum over shards, max_batch_docs and queue_high_water
// are maxima, and the rates are re-derived from the summed counters. It
// also pins the document's key set, so a field cannot silently appear in,
// vanish from, or be renamed in the operator-facing JSON.
func TestShardedStatsRollup(t *testing.T) {
	const S = 3
	sh, err := withoutFsync(NewSharded(ShardedConfig{
		Shards: S, WALDir: t.TempDir(),
		NewDetector: lifecycleDetector(16),
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sh.Close(); err != nil {
			t.Error(err)
		}
	}()
	drift := datagen.NewDriftStream(datagen.DriftConfig{Seed: 7, Active: 5, ChurnEvery: 48})
	docs := drift.Docs(0, 900)
	for i, n := 0, 1; i < len(docs); i, n = i+n, n%5+1 {
		if _, err := sh.Submit(docs[i:min(i+n, len(docs))]); err != nil {
			t.Fatal(err)
		}
		if i%300 < n {
			if err := sh.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Two streamed snapshots give every shard a live snapshot counter.
	for i := 0; i < 2; i++ {
		if err := sh.SnapshotTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	NewServer(sh, "").Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}

	wantKeys := map[string]string{
		"":            "docs_per_batch per_shard route shards total",
		"total":       "lifecycle matcher pending_docs serve templates",
		"per_shard[]": "lifecycle matcher pending_docs serve shard templates wal",
		"matcher": "band_retries band_runs bitdp_ns bitdp_pruned bitdp_runs bitmap_skips bound_ns " +
			"cand_per_probe_hist_log2 candidates dp_pruned dp_runs dp_skip_rate exactdp_ns examined " +
			"postings_walks probes walk_ns",
		"lifecycle": "aged_out evicted flush_docs flushes live merged mine_clustered mine_reused mined reuse_rate " +
			"vocab_compactions vocab_dropped vocab_words",
		"serve": "batch_size_hist batches batches_by_drain batches_by_size coalesce_wait_ns commit_errs " +
			"docs max_batch_docs queue_high_water snapshot_lock_ns snapshots",
		"wal": "batches bytes errors flushes records replayed syncs",
	}
	gotKeys := map[string]string{}
	collectKeys(gotKeys, "", doc)
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Fatalf("/v1/stats key set changed:\n got %v\nwant %v", gotKeys, wantKeys)
	}

	shards := doc["per_shard"].([]any)
	if len(shards) != S {
		t.Fatalf("%d per-shard blocks, want %d", len(shards), S)
	}
	total := doc["total"].(map[string]any)
	perShard := func(section, key string) []any {
		var out []any
		for _, b := range shards {
			out = append(out, b.(map[string]any)[section].(map[string]any)[key])
		}
		return out
	}
	sum := func(section, key string) float64 {
		s := 0.0
		for _, v := range perShard(section, key) {
			s += v.(float64)
		}
		return s
	}
	for _, section := range []string{"matcher", "lifecycle", "serve"} {
		for key, v := range total[section].(map[string]any) {
			var want any
			switch key {
			case "dp_skip_rate":
				want = sum("matcher", "dp_pruned") / sum("matcher", "candidates")
			case "reuse_rate":
				want = sum("lifecycle", "mine_reused") / sum("lifecycle", "mine_clustered")
			case "max_batch_docs", "queue_high_water":
				m := 0.0
				for _, v := range perShard(section, key) {
					m = max(m, v.(float64))
				}
				want = m
			case "cand_per_probe_hist_log2", "batch_size_hist":
				h := make([]any, len(v.([]any)))
				for i := range h {
					s := 0.0
					for _, hist := range perShard(section, key) {
						s += hist.([]any)[i].(float64)
					}
					h[i] = s
				}
				want = h
			default:
				want = sum(section, key)
			}
			if !reflect.DeepEqual(v, want) {
				t.Errorf("total.%s.%s = %v, want %v", section, key, v, want)
			}
		}
	}
	ts := total["serve"].(map[string]any)
	if got, want := doc["docs_per_batch"], ts["docs"].(float64)/ts["batches"].(float64); !reflect.DeepEqual(got, want) {
		t.Errorf("docs_per_batch = %v, want %v", got, want)
	}

	// The sums must be over live counters, not zeros.
	lc := total["lifecycle"].(map[string]any)
	if lc["evicted"].(float64)+lc["aged_out"].(float64)+lc["merged"].(float64) == 0 || lc["mine_reused"].(float64) == 0 ||
		lc["vocab_words"].(float64) == 0 {
		t.Fatalf("no lifecycle activity to roll up: %v", lc)
	}
	for k, b := range shards {
		if b.(map[string]any)["matcher"].(map[string]any)["probes"].(float64) == 0 {
			t.Fatalf("shard %d matched nothing", k)
		}
		sv := b.(map[string]any)["serve"].(map[string]any)
		if sv["snapshots"].(float64) != 2 || sv["snapshot_lock_ns"].(float64) <= 0 {
			t.Fatalf("shard %d snapshot counters %v, %v after 2 snapshots", k, sv["snapshots"], sv["snapshot_lock_ns"])
		}
	}
}

// collectKeys records the sorted key set of every JSON object in v under
// the object's own key (the root under "", array elements under
// "<key>[]"). Objects sharing a key — the total's and every shard's
// matcher block, say — must share one key set, or the entry records both.
func collectKeys(out map[string]string, name string, v any) {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k, e := range x {
			keys = append(keys, k)
			collectKeys(out, k, e)
		}
		sort.Strings(keys)
		joined := strings.Join(keys, " ")
		if prev, ok := out[name]; ok && prev != joined {
			joined = prev + " | " + joined
		}
		out[name] = joined
	case []any:
		for _, e := range x {
			collectKeys(out, name+"[]", e)
		}
	}
}
