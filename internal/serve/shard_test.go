package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"infoshield/internal/core"
	"infoshield/internal/stream"
	"infoshield/internal/tokenize"
)

func shardMineDetector(mineBatch int) func() *stream.Detector {
	return func() *stream.Detector {
		det := stream.New(core.Options{})
		det.BatchSize = mineBatch
		return det
	}
}

// shardOfText mirrors the sharder's routing decision for a raw text.
func shardOfText(mode, text string, S int) int {
	var tk tokenize.Tokenizer
	return int(routeKey(mode, tk.Tokens(text)) % uint64(S))
}

func TestRouteKey(t *testing.T) {
	var tk tokenize.Tokenizer
	eng := tk.Tokens("limited offer buy now")
	eng2 := tk.Tokens("limited offer buy later")
	rus := tk.Tokens("срочно купить сейчас дешево")

	// Pure function: stable across calls.
	if routeKey(RouteHash, eng) != routeKey(RouteHash, eng) {
		t.Fatal("hash route key not deterministic")
	}
	// Token boundaries matter for the hash.
	if fnvWords([]string{"ab", "c"}) == fnvWords([]string{"a", "bc"}) {
		t.Fatal("token boundary collision")
	}
	// Language routing groups same-script documents and separates scripts.
	if routeKey(RouteLang, eng) != routeKey(RouteLang, eng2) {
		t.Fatal("two latin docs got different lang keys")
	}
	if routeKey(RouteLang, eng) == routeKey(RouteLang, rus) {
		t.Fatal("latin and cyrillic docs share a lang key")
	}
	// Japanese: any kana classifies the kana/han mix as one language.
	jp := tk.Tokens("激安 ブランド 時計 販売")
	cn := tk.Tokens("出售 廉价 手表 正品")
	if routeKey(RouteLang, jp) == routeKey(RouteLang, cn) {
		t.Fatal("japanese and chinese docs share a lang key")
	}
	// No letters at all: falls back to the content hash, so distinct
	// numeric docs can still spread across shards.
	d1, d2 := tk.Tokens("123 456"), tk.Tokens("789 012")
	if routeKey(RouteLang, d1) == routeKey(RouteLang, d2) {
		t.Fatal("letterless docs should fall back to content hash")
	}
	if !validRoute(RouteHash) || !validRoute(RouteLang) || validRoute("nope") {
		t.Fatal("validRoute")
	}
}

// TestShardedEquivalence is the tentpole determinism gate.
//
// S=1 with hash routing must be *byte-identical* to the unsharded
// coalescer: same verdicts for the same request sequence and the same
// serialized detector state. S>1 must decompose exactly: each shard's
// verdict stream equals a serial reference detector fed that shard's
// subsequence of the input, with ids encoding shard and arrival order.
func TestShardedEquivalence(t *testing.T) {
	const mineBatch = 16
	docs := corpusFor(11, 240)

	t.Run("S1-byte-identical", func(t *testing.T) {
		sh := newTestSharded(t, ShardedConfig{Shards: 1, NewDetector: shardMineDetector(mineBatch)}, 0)
		det := stream.New(core.Options{})
		det.BatchSize = mineBatch
		c := NewCoalescer(det, Options{})

		for i := 0; i < len(docs); {
			k := 1 + i%3
			if i+k > len(docs) {
				k = len(docs) - i
			}
			batch := docs[i : i+k]
			vs, err := sh.Submit(batch)
			if err != nil {
				t.Fatal(err)
			}
			ws := submit(c, batch)
			if !reflect.DeepEqual(vs, ws) {
				t.Fatalf("at doc %d: sharded %+v != unsharded %+v", i, vs, ws)
			}
			i += k
		}
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := sh.shards[0].det.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := det.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("S=1 serialized state differs from the unsharded detector")
		}
	})

	for _, S := range []int{2, 3, 4} {
		S := S
		t.Run(fmt.Sprintf("S%d-serial", S), func(t *testing.T) {
			sh := newTestSharded(t, ShardedConfig{Shards: S, NewDetector: shardMineDetector(mineBatch)}, 0)
			subseq := make([][]string, S)
			for i := 0; i < len(docs); {
				k := 1 + i%4
				if i+k > len(docs) {
					k = len(docs) - i
				}
				batch := docs[i : i+k]
				vs, err := sh.Submit(batch)
				if err != nil {
					t.Fatal(err)
				}
				for j, text := range batch {
					home := shardOfText(RouteHash, text, S)
					local := len(subseq[home])
					subseq[home] = append(subseq[home], text)
					if vs[j].ID != local*S+home {
						t.Fatalf("doc %q: id %d, want local %d on shard %d", text, vs[j].ID, local, home)
					}
					if vs[j].Template >= 0 && vs[j].Template%S != home {
						t.Fatalf("doc %q: template %d not on home shard %d", text, vs[j].Template, home)
					}
				}
				i += k
			}
			if err := sh.Close(); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < S; k++ {
				compareToReplay(t, sh.shards[k].det, subseq[k], mineBatch)
			}
		})
	}

	t.Run("S4-concurrent", func(t *testing.T) {
		const S = 4
		sh := newTestSharded(t, ShardedConfig{Shards: S, NewDetector: shardMineDetector(mineBatch)}, 0)
		clients, perClient := 8, 50
		if testing.Short() {
			clients, perClient = 4, 25
		}
		var mu sync.Mutex
		byID := map[int]string{}
		var wg sync.WaitGroup
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				docs := corpusFor(int64(5000+cl), perClient)
				for i := 0; i < len(docs); {
					k := 1 + (cl+i)%3
					if i+k > len(docs) {
						k = len(docs) - i
					}
					vs, err := sh.Submit(docs[i : i+k])
					if err != nil {
						t.Errorf("client %d: %v", cl, err)
						return
					}
					mu.Lock()
					for j, v := range vs {
						if _, dup := byID[v.ID]; dup {
							t.Errorf("duplicate id %d", v.ID)
						}
						byID[v.ID] = docs[i+j]
					}
					mu.Unlock()
					i += k
				}
			}(cl)
		}
		wg.Wait()
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}

		// Reconstruct each shard's arrival sequence from the ids (global =
		// local*S + shard), check density, and replay it serially.
		subseq := make([][]string, S)
		for k := range subseq {
			subseq[k] = make([]string, 0, len(byID)/S+1)
		}
		counts := make([]int, S)
		for id := range byID {
			counts[id%S]++
		}
		for k := 0; k < S; k++ {
			subseq[k] = make([]string, counts[k])
		}
		for id, text := range byID {
			k, local := id%S, id/S
			if local >= counts[k] {
				t.Fatalf("shard %d ids not dense: local %d with only %d docs", k, local, counts[k])
			}
			subseq[k][local] = text
		}
		for k := 0; k < S; k++ {
			// Routing invariant: every document on shard k routed there.
			for _, text := range subseq[k] {
				if home := shardOfText(RouteHash, text, S); home != k {
					t.Fatalf("doc %q on shard %d, routes to %d", text, k, home)
				}
			}
			compareToReplay(t, sh.shards[k].det, subseq[k], mineBatch)
		}
	})
}

// TestShardedWALReplay simulates a crash (Close without Drain leaves the
// WAL intact) and verifies reboot replays to the exact pre-crash
// assignment map — fully when nothing was snapshotted, and above the
// snapshot high-water mark when a live snapshot happened mid-stream.
func TestShardedWALReplay(t *testing.T) {
	for _, tc := range []struct {
		name     string
		S        int
		snapshot bool
	}{
		{"S1-no-snapshot", 1, false},
		{"S3-no-snapshot", 3, false},
		{"S3-mid-stream-snapshot", 3, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := ShardedConfig{
				Shards: tc.S, WALDir: dir, WALNoSync: true,
				StatePath:   filepath.Join(dir, "state.json"),
				NewDetector: shardMineDetector(16),
			}
			sh, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}

			docs := corpusFor(21, 180)
			var ids []int
			hwm := make([]int, tc.S)
			for i, text := range docs {
				if i == 60 {
					if err := sh.Flush(); err != nil { // logged flush marker
						t.Fatal(err)
					}
				}
				if tc.snapshot && i == 120 {
					if _, err := sh.Snapshot(cfg.StatePath); err != nil {
						t.Fatal(err)
					}
					// Each shard's snapshot hwm = documents routed to it so far.
					for _, id := range ids {
						if id/tc.S+1 > hwm[id%tc.S] {
							hwm[id%tc.S] = id/tc.S + 1
						}
					}
				}
				vs, err := sh.Submit([]string{text})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, vs[0].ID)
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
			// Crash: no drain, no final snapshot — the WAL is the only record
			// of everything after the last (or no) snapshot.
			if err := sh.Close(); err != nil {
				t.Fatal(err)
			}

			sh2, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := sh2.Close(); err != nil {
					t.Error(err)
				}
			}()
			st2, err := sh2.Stats()
			if err != nil {
				t.Fatal(err)
			}
			replayed := int64(0)
			for _, ps := range st2.PerShard {
				if ps.WAL == nil {
					t.Fatal("wal stats missing")
				}
				replayed += ps.WAL.Replayed
			}
			wantReplayed := int64(len(ids))
			if tc.snapshot {
				wantReplayed = 0
				for k, h := range hwm {
					var total int
					for _, id := range ids {
						if id%tc.S == k {
							total++
						}
					}
					wantReplayed += int64(total - h)
				}
			}
			if replayed != wantReplayed {
				t.Fatalf("replayed %d records, want %d", replayed, wantReplayed)
			}
			for _, id := range ids {
				if tc.snapshot && id/tc.S < hwm[id%tc.S] {
					continue // below the snapshot mark: state-only, map not kept
				}
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
		})
	}
}

// TestShardedDrain verifies the graceful path: every buffered document
// mined, manifest written, WALs truncated — and a reboot needs no replay.
func TestShardedDrain(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedConfig{
		Shards: 2, WALDir: dir, WALNoSync: true,
		StatePath:   filepath.Join(dir, "state.json"),
		NewDetector: shardMineDetector(1 << 30),
	}
	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Submit(corpusFor(7, 120)); err != nil {
		t.Fatal(err)
	}
	if st, err := sh.Stats(); err != nil {
		t.Fatal(err)
	} else if st.Total.PendingDocs == 0 {
		t.Fatal("test needs pending docs at drain time")
	}
	if err := sh.Drain(cfg.StatePath); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second drain (or close) is a no-op.
	if err := sh.Drain(cfg.StatePath); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	for k := 0; k < cfg.Shards; k++ {
		info, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal-%d.log", k)))
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != 0 {
			t.Fatalf("wal-%d not truncated after drain: %d bytes", k, info.Size())
		}
	}

	sh2, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	st, err := sh2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Total.Templates == 0 || st.Total.PendingDocs != 0 {
		t.Fatalf("post-drain boot: %+v, want mined templates and no pending", st.Total)
	}
	for _, ps := range st.PerShard {
		if ps.WAL.Replayed != 0 {
			t.Fatalf("shard %d replayed %d records after a clean drain", ps.Shard, ps.WAL.Replayed)
		}
	}
}

// TestShardedChaoticShutdown audits the accept gate under S shards:
// Close races live multi-document submissions, and every
// request must be all-or-nothing — ErrClosed with no documents
// committed anywhere, or full verdicts with per-shard-dense ids. The
// sharded gate (RLock across the whole fan-out) is what rules out a
// request landing on shard A while shard B is already closed.
func TestShardedChaoticShutdown(t *testing.T) {
	const S = 3
	clients := 8
	if testing.Short() {
		clients = 4
	}
	sh := newTestSharded(t, ShardedConfig{Shards: S, NewDetector: shardMineDetector(64)}, 0)

	var mu sync.Mutex
	ids := map[int]bool{}
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			docs := corpusFor(int64(300+cl), 150)
			for i := 0; i+3 <= len(docs); i += 3 {
				// 3-document batches: with S=3 these regularly fan out to
				// multiple shards, exercising the all-or-nothing path.
				vs, err := sh.Submit(docs[i : i+3])
				if err != nil {
					if err != ErrClosed {
						t.Errorf("client %d: %v", cl, err)
					}
					return
				}
				if len(vs) != 3 {
					t.Errorf("client %d: partial verdicts %d/3", cl, len(vs))
					return
				}
				mu.Lock()
				for _, v := range vs {
					if ids[v.ID] {
						t.Errorf("duplicate id %d", v.ID)
					}
					ids[v.ID] = true
				}
				mu.Unlock()
			}
		}(cl)
	}
	time.Sleep(2 * time.Millisecond)
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Per-shard density: every accepted document was committed and acked
	// on its shard, with no gaps — the witness that no sub-request was
	// dropped by the race.
	counts := make([]int, S)
	for id := range ids {
		counts[id%S]++
	}
	for id := range ids {
		if id/S >= counts[id%S] {
			t.Fatalf("shard %d ids not dense: local %d with %d docs", id%S, id/S, counts[id%S])
		}
	}
}

// TestShardedPersistRoundTrip snapshots a serving daemon to a path and
// reboots from it with no write-ahead log: template reports and
// subsequent verdicts must carry over.
func TestShardedPersistRoundTrip(t *testing.T) {
	cfg := ShardedConfig{
		StatePath:   filepath.Join(t.TempDir(), "state.json"),
		NewDetector: shardMineDetector(1 << 30),
	}
	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Submit(corpusFor(7, 120)); err != nil {
		t.Fatal(err)
	}
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	tmpls, err := sh.Templates()
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpls) == 0 {
		t.Fatal("no templates mined")
	}
	if _, err := sh.Snapshot(cfg.StatePath); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	sh2, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	tmpls2, err := sh2.Templates()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tmpls, tmpls2) {
		t.Fatalf("templates differ after round trip:\n%+v\n%+v", tmpls, tmpls2)
	}
	// A campaign member must match the restored templates immediately.
	vs, err := sh2.Submit([]string{"limited offer buy the premium golden package today visit site0042.example now"})
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Template < 0 {
		t.Fatalf("campaign doc did not match restored templates: %+v", vs[0])
	}
}

// TestShardedSnapshotGenerations: repeated snapshots to one path leave
// exactly one generation of shard files (plus the manifest) behind, and
// the newest always loads.
func TestShardedSnapshotGenerations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	cfg := ShardedConfig{Shards: 2, StatePath: path, NewDetector: shardMineDetector(16)}
	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	docs := corpusFor(9, 90)
	for i := 0; i < 3; i++ {
		if _, err := sh.Submit(docs[i*30 : (i+1)*30]); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Snapshot(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var shardFiles int
	for _, e := range entries {
		if strings.Contains(e.Name(), ".shard") {
			shardFiles++
		}
	}
	if shardFiles != cfg.Shards {
		t.Fatalf("%d shard files on disk after 3 snapshots, want %d (old generations removed)", shardFiles, cfg.Shards)
	}
	sh2, err := NewSharded(cfg)
	if err != nil {
		t.Fatalf("latest generation does not load: %v", err)
	}
	if err := sh2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConfigValidation covers construction-time rejections.
func TestShardedConfigValidation(t *testing.T) {
	if _, err := NewSharded(ShardedConfig{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewSharded(ShardedConfig{Route: "nope"}); err == nil {
		t.Error("unknown route accepted")
	}

	// Shard-count and route mismatches against a saved manifest are boot
	// errors, not silent re-partitions.
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	sh, err := NewSharded(ShardedConfig{Shards: 2, StatePath: path, NewDetector: shardMineDetector(16)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Submit(corpusFor(5, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSharded(ShardedConfig{Shards: 3, StatePath: path}); err == nil {
		t.Error("shard-count mismatch accepted")
	}
	if _, err := NewSharded(ShardedConfig{Shards: 2, Route: RouteLang, StatePath: path}); err == nil {
		t.Error("route mismatch accepted")
	}
}

// TestShardedLangRouting: language routing sends every member of a
// monoscript campaign to one shard, so its template is mined exactly
// once across the fleet.
func TestShardedLangRouting(t *testing.T) {
	const S = 4
	sh := newTestSharded(t, ShardedConfig{Shards: S, Route: RouteLang, NewDetector: shardMineDetector(8)}, 0)
	defer func() {
		if err := sh.Close(); err != nil {
			t.Error(err)
		}
	}()

	latin := []string{
		"limited offer buy the premium package today visit site one",
		"limited offer buy the premium package today visit site two",
		"limited offer buy the premium package today visit site three",
	}
	cyr := []string{
		"срочно продаю новые часы дешево звоните сегодня один",
		"срочно продаю новые часы дешево звоните сегодня два",
		"срочно продаю новые часы дешево звоните сегодня три",
	}
	vs, err := sh.Submit(append(append([]string{}, latin...), cyr...))
	if err != nil {
		t.Fatal(err)
	}
	latinShard, cyrShard := vs[0].ID%S, vs[len(latin)].ID%S
	for i, v := range vs {
		want := latinShard
		if i >= len(latin) {
			want = cyrShard
		}
		if v.ID%S != want {
			t.Fatalf("doc %d on shard %d, want %d (language split within one script)", i, v.ID%S, want)
		}
	}
}
