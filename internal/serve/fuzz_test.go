package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infoshield/internal/core"
	"infoshield/internal/stream"
	"infoshield/internal/tokenize"
)

// FuzzServe drives an interleaved program of HTTP single-doc, batch,
// flush, and snapshot requests against the daemon's handler and mirrors
// every operation on a serial reference detector. Each verdict in every
// HTTP response must match the reference assignment sampled at the same
// point, and each snapshot must restore to the reference's exact
// template state. The program bytes choose the operations; the payload
// contributes fuzzer-controlled document texts on top of a minable
// campaign mix.
func FuzzServe(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3}, "hello world this is text")
	f.Add([]byte{1, 1, 1, 2, 3, 2}, "a\nbb cc\n\nddd ee ff gg")
	f.Add([]byte{0, 4, 8, 2, 12, 3, 0, 1}, "limited offer buy now\nlimited offer buy now")
	f.Add([]byte{2, 2, 3, 3}, "")

	f.Fuzz(func(t *testing.T, program []byte, payload string) {
		if len(program) > 24 {
			program = program[:24]
		}
		docs := fuzzDocs(payload)

		const mineBatch = 8
		sh := newTestSharded(t, ShardedConfig{Coalescer: Options{MaxBatch: 4}}, mineBatch)
		ts := httptest.NewServer(NewServer(sh, "").Handler())
		defer func() {
			ts.Close()
			if err := sh.Close(); err != nil {
				t.Error(err)
			}
		}()

		ref := stream.New(core.Options{Workers: 1})
		ref.BatchSize = mineBatch

		next := 0 // cursor into docs
		takeDoc := func() string {
			d := docs[next%len(docs)]
			next++
			return d
		}

		for pc, op := range program {
			switch op % 4 {
			case 0: // single-document ingest
				text := takeDoc()
				var v Verdict
				fuzzPost(t, ts.URL+"/v1/docs", mustJSON(t, docsRequest{Text: &text}), &v)
				wantID := ref.Add(text)
				checkVerdict(t, pc, v, wantID, ref)
			case 1: // batch ingest of 1–3 documents
				k := 1 + int(op>>2)%3
				texts := make([]string, k)
				for i := range texts {
					texts[i] = takeDoc()
				}
				var resp docsResponse
				fuzzPost(t, ts.URL+"/v1/docs", mustJSON(t, docsRequest{Texts: texts}), &resp)
				if len(resp.Docs) != k {
					t.Fatalf("op %d: %d verdicts for %d docs", pc, len(resp.Docs), k)
				}
				wantIDs := make([]int, k)
				for i, text := range texts {
					wantIDs[i] = ref.Add(text)
				}
				for i, v := range resp.Docs {
					checkVerdict(t, pc, v, wantIDs[i], ref)
				}
			case 2: // force a mining pass
				fuzzPost(t, ts.URL+"/v1/flush", "", nil)
				ref.Flush()
			case 3: // snapshot must restore to the reference's state
				resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", nil)
				if err != nil {
					t.Fatal(err)
				}
				state, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("op %d: snapshot status %d err %v", pc, resp.StatusCode, rerr)
				}
				// A snapshot mines the pending buffer first; mirror that.
				ref.Flush()
				var man manifestV2
				if err := json.Unmarshal(state, &man); err != nil {
					t.Fatalf("op %d: snapshot body is not a manifest: %v", pc, err)
				}
				if man.Version != 2 || man.Shards != 1 || len(man.States) != 1 {
					t.Fatalf("op %d: manifest %+v", pc, man)
				}
				// The shard state must be byte-identical to the reference's own
				// Save — the persisted form stores a word table ordered by
				// first use in the walk Save makes, not vocabulary ids, so it
				// is the vocabulary-independent witness of the template state
				// (a Load into a fresh detector re-encodes ids and would
				// compare vocabulary-local numbering instead).
				var want bytes.Buffer
				if err := ref.Save(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bytes.TrimSpace(man.States[0]), bytes.TrimSpace(want.Bytes())) {
					t.Fatalf("op %d: snapshot state diverges from reference:\n%s\nvs\n%s",
						pc, man.States[0], want.Bytes())
				}
				restored := stream.New(core.Options{Workers: 1})
				if err := restored.Load(bytes.NewReader(man.States[0])); err != nil {
					t.Fatalf("op %d: snapshot does not load: %v", pc, err)
				}
				if restored.NextID() != next {
					t.Fatalf("op %d: snapshot holds %d documents, ingested %d", pc, restored.NextID(), next)
				}
			}
		}

		// Final state must agree with the reference on every axis the API
		// exposes.
		var st ShardedStats
		fuzzGet(t, ts.URL+"/v1/stats", &st)
		if st.Total.Templates != ref.NumTemplates() || st.Total.PendingDocs != ref.Pending() {
			t.Fatalf("final stats %+v, reference %d templates %d pending",
				st.Total, ref.NumTemplates(), ref.Pending())
		}
		if int64(next) != st.Total.Serve.Docs {
			t.Fatalf("served %d docs, counter says %d", next, st.Total.Serve.Docs)
		}
	})
}

// FuzzServeSharded is the sharded-daemon equivalence fuzzer: a random
// shard count, an op program interleaving ingest, flush, snapshot, and
// crash+reboot (close without drain, then replay from the write-ahead
// log), mirrored on S serial reference detectors fed each shard's
// subsequence via the same routing function. Every verdict, every
// acknowledged document's assignment after the last reboot, and the
// final template/pending state must match the references exactly.
func FuzzServeSharded(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3}, "hello world this is text", uint8(2))
	f.Add([]byte{0, 4, 8, 4, 12, 3, 0, 1}, "limited offer buy now\nlimited offer buy now", uint8(3))
	f.Add([]byte{1, 1, 4, 2, 3, 4}, "a\nbb cc\n\nddd ee ff gg", uint8(4))
	f.Add([]byte{4, 0, 4, 0, 4}, "", uint8(1))

	f.Fuzz(func(t *testing.T, program []byte, payload string, sseed uint8) {
		if len(program) > 20 {
			program = program[:20]
		}
		S := 1 + int(sseed)%4
		docs := fuzzDocs(payload)

		dir := t.TempDir()
		statePath := filepath.Join(dir, "state.json")
		walDir := filepath.Join(dir, "wal")
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			t.Fatal(err)
		}
		const mineBatch = 8
		cfg := ShardedConfig{
			Shards: S, WALDir: walDir, WALNoSync: true, StatePath: statePath,
			Coalescer: Options{MaxBatch: 4},
			NewDetector: func() *stream.Detector {
				det := stream.New(core.Options{})
				det.BatchSize = mineBatch
				return det
			},
		}
		sh, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := sh.Close(); err != nil {
				t.Error(err)
			}
		}()

		// One serial reference detector per shard, fed exactly the
		// subsequence the router sends that shard.
		refs := make([]*stream.Detector, S)
		for k := range refs {
			refs[k] = stream.New(core.Options{Workers: 1})
			refs[k].BatchSize = mineBatch
		}
		var tk tokenize.Tokenizer
		type docRef struct{ shard, local int }
		var ingested []docRef
		refAdd := func(text string) docRef {
			k := int(routeKey(RouteHash, tk.Tokens(text)) % uint64(S))
			d := docRef{shard: k, local: refs[k].Add(text)}
			ingested = append(ingested, d)
			return d
		}
		check := func(pc int, v Verdict, d docRef) {
			t.Helper()
			if v.ID != d.local*S+d.shard {
				t.Fatalf("op %d: verdict id %d, want local %d on shard %d of %d", pc, v.ID, d.local, d.shard, S)
			}
			want := refs[d.shard].Assignment(d.local)
			wantTmpl := want.Template
			if wantTmpl >= 0 {
				wantTmpl = wantTmpl*S + d.shard
			}
			if v.Template != wantTmpl || v.Pending != want.Pending {
				t.Fatalf("op %d doc %d/%d: verdict %+v, reference %+v", pc, d.shard, d.local, v, want)
			}
		}

		next := 0
		takeDoc := func() string {
			d := docs[next%len(docs)]
			next++
			return d
		}

		for pc, op := range program {
			switch op % 5 {
			case 0: // single-document ingest
				text := takeDoc()
				vs, err := sh.Submit([]string{text})
				if err != nil {
					t.Fatalf("op %d: %v", pc, err)
				}
				check(pc, vs[0], refAdd(text))
			case 1: // batch ingest of 1–3 documents
				k := 1 + int(op>>2)%3
				texts := make([]string, k)
				for i := range texts {
					texts[i] = takeDoc()
				}
				vs, err := sh.Submit(texts)
				if err != nil {
					t.Fatalf("op %d: %v", pc, err)
				}
				drs := make([]docRef, k)
				for i, text := range texts {
					drs[i] = refAdd(text)
				}
				for i, v := range vs {
					check(pc, v, drs[i])
				}
			case 2: // force a mining pass everywhere
				if err := sh.Flush(); err != nil {
					t.Fatalf("op %d: %v", pc, err)
				}
				for _, r := range refs {
					r.Flush()
				}
			case 3: // live snapshot (flushes; WAL left intact)
				if _, err := sh.Snapshot(statePath); err != nil {
					t.Fatalf("op %d: snapshot: %v", pc, err)
				}
				for _, r := range refs {
					r.Flush()
				}
			case 4: // crash: close without drain, reboot, replay from WAL
				if err := sh.Close(); err != nil {
					t.Fatalf("op %d: close: %v", pc, err)
				}
				sh, err = NewSharded(cfg)
				if err != nil {
					t.Fatalf("op %d: reboot: %v", pc, err)
				}
			}
		}

		// Every acked document must be reproducible across any crash/reboot
		// in the program: the snapshot state carries the verdicts below its
		// document count, and WAL replay reconstructs the rest.
		for i, d := range ingested {
			v, err := sh.Assignment(d.local*S + d.shard)
			if err != nil {
				t.Fatal(err)
			}
			check(-1-i, v, d)
		}
		st, err := sh.Stats()
		if err != nil {
			t.Fatal(err)
		}
		wantTemplates, wantPending := 0, 0
		for _, r := range refs {
			wantTemplates += r.NumTemplates()
			wantPending += r.Pending()
		}
		if st.Total.Templates != wantTemplates || st.Total.PendingDocs != wantPending {
			t.Fatalf("final stats %+v, reference %d templates %d pending",
				st.Total, wantTemplates, wantPending)
		}
	})
}

// fuzzDocs turns the fuzzer payload into a document pool, padded with a
// deterministic campaign/noise mix so mining actually fires.
func fuzzDocs(payload string) []string {
	docs := corpusFor(3, 16)
	for _, line := range strings.Split(payload, "\n") {
		if len(line) > 80 {
			line = line[:80]
		}
		docs = append(docs, line)
	}
	return docs
}

// checkVerdict compares one HTTP verdict with the reference assignment
// sampled after the mirrored Add.
func checkVerdict(t *testing.T, pc int, v Verdict, wantID int, ref *stream.Detector) {
	t.Helper()
	if v.ID != wantID {
		t.Fatalf("op %d: verdict id %d, reference id %d", pc, v.ID, wantID)
	}
	want := ref.Assignment(wantID)
	if v.Template != want.Template || v.Pending != want.Pending {
		t.Fatalf("op %d doc %d: verdict %+v, reference %+v", pc, wantID, v, want)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fuzzPost is postJSON with a hard failure on non-200, since every
// request the fuzz driver builds is well-formed.
func fuzzPost(t *testing.T, url, body string, out any) {
	t.Helper()
	if code := postJSON(t, url, body, out); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
}

func fuzzGet(t *testing.T, url string, out any) {
	t.Helper()
	if code := getJSON(t, url, out); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
}
