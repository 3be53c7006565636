package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infoshield/internal/core"
	"infoshield/internal/stream"
)

// newTestSharded builds a sharded detector set for tests.
func newTestSharded(t *testing.T, cfg ShardedConfig, mineBatch int) *Sharded {
	t.Helper()
	if cfg.NewDetector == nil {
		cfg.NewDetector = func() *stream.Detector {
			det := stream.New(core.Options{})
			if mineBatch > 0 {
				det.BatchSize = mineBatch
			}
			return det
		}
	}
	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// setMaxBatch lowers every shard's group-commit cap to n, so small
// request mixes commit in more than one batch.
func setMaxBatch(sh *Sharded, n int) *Sharded {
	for _, s := range sh.shards {
		s.maxBatch = n
	}
	return sh
}

// newTestServer wires a single-shard detector behind the HTTP front end
// — the PR 5 daemon shape, which S=1 must reproduce byte-identically.
func newTestServer(t *testing.T, mineBatch int, statePath string) (*httptest.Server, *Sharded) {
	t.Helper()
	sh := newTestSharded(t, ShardedConfig{StatePath: statePath}, mineBatch)
	ts := httptest.NewServer(NewServer(sh, statePath).Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := sh.Close(); err != nil {
			t.Error(err)
		}
	})
	return ts, sh
}

// postJSON posts body to url and decodes the JSON response into out.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches url and decodes the JSON response into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestServerIngestForms(t *testing.T) {
	ts, _ := newTestServer(t, 1<<30, "")

	var single Verdict
	if code := postJSON(t, ts.URL+"/v1/docs", `{"text":"aa bb cc dd ee"}`, &single); code != http.StatusOK {
		t.Fatalf("single ingest: status %d", code)
	}
	if single.ID != 0 || !single.Pending || single.Template != -1 {
		t.Fatalf("single verdict %+v", single)
	}

	var batch docsResponse
	if code := postJSON(t, ts.URL+"/v1/docs", `{"texts":["ff gg hh ii jj","kk ll mm nn oo"]}`, &batch); code != http.StatusOK {
		t.Fatalf("batch ingest: status %d", code)
	}
	if len(batch.Docs) != 2 || batch.Docs[0].ID != 1 || batch.Docs[1].ID != 2 {
		t.Fatalf("batch verdicts %+v", batch.Docs)
	}

	var a assignmentResponse
	if code := getJSON(t, ts.URL+"/v1/assignments/1", &a); code != http.StatusOK {
		t.Fatalf("assignment: status %d", code)
	}
	if a.ID != 1 || a.Shard != 0 || !a.Pending {
		t.Fatalf("assignment %+v", a)
	}
}

func TestServerValidation(t *testing.T) {
	ts, _ := newTestServer(t, 0, "")

	for _, body := range []string{
		`{}`,                         // neither form
		`{"text":"a","texts":["b"]}`, // both forms
		`{"unknown":1,"text":"a"}`,   // unknown field
		`{"text":`,                   // malformed JSON
	} {
		if code := postJSON(t, ts.URL+"/v1/docs", body, nil); code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, code)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/assignments/notanumber", nil); code != http.StatusBadRequest {
		t.Errorf("bad id: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/docs", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/docs: status %d, want 405", code)
	}
}

// ingestCampaign pushes a minable corpus (the same campaign/noise mix
// the coalescer tests use) and returns how many docs.
func ingestCampaign(t *testing.T, url string) int {
	t.Helper()
	docs := corpusFor(7, 120)
	body, err := json.Marshal(docsRequest{Texts: docs})
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, url+"/v1/docs", string(body), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	return len(docs)
}

func TestServerFlushTemplatesStats(t *testing.T) {
	ts, _ := newTestServer(t, 1<<30, "")
	n := ingestCampaign(t, ts.URL)

	var flushed struct {
		Templates   int `json:"templates"`
		PendingDocs int `json:"pending_docs"`
	}
	if code := postJSON(t, ts.URL+"/v1/flush", "", &flushed); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	if flushed.Templates == 0 || flushed.PendingDocs != 0 {
		t.Fatalf("flush response %+v", flushed)
	}

	var tmpls struct {
		Templates []ShardTemplate `json:"templates"`
	}
	if code := getJSON(t, ts.URL+"/v1/templates", &tmpls); code != http.StatusOK {
		t.Fatalf("templates: status %d", code)
	}
	if len(tmpls.Templates) != flushed.Templates {
		t.Fatalf("%d templates reported vs %d flushed", len(tmpls.Templates), flushed.Templates)
	}
	tr := tmpls.Templates[0]
	if tr.Pattern == "" || tr.DocCount < 2 || tr.Shard != 0 || tr.ID != tr.Index {
		t.Fatalf("template %+v", tr)
	}

	var st ShardedStats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Shards != 1 || st.Route != RouteHash || len(st.PerShard) != 1 {
		t.Fatalf("sharded stats header %+v", st)
	}
	if st.Total.Templates != flushed.Templates || st.Total.PendingDocs != 0 {
		t.Fatalf("stats %+v inconsistent with flush %+v", st.Total, flushed)
	}
	if st.Total.Serve.Docs != int64(n) || st.Total.Serve.Batches == 0 {
		t.Fatalf("serve counters %+v, want %d docs", st.Total.Serve, n)
	}

	// A second ingest probes the now-mined template set, so the matcher
	// health block must populate: consistent counters, a derived skip
	// rate, and a histogram whose mass equals the probe count.
	ingestCampaign(t, ts.URL)
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	m := st.Total.Matcher
	if m.Probes == 0 || m.DPRuns+m.DPPruned != m.Candidates {
		t.Fatalf("matcher counters out of balance: %+v", m)
	}
	wantRate := float64(m.DPPruned) / float64(m.Candidates)
	if m.DPSkipRate < wantRate || m.DPSkipRate > wantRate {
		t.Fatalf("dp_skip_rate %v, want %v", m.DPSkipRate, wantRate)
	}
	histMass := 0
	for _, c := range m.CandHist {
		histMass += c
	}
	if histMass != m.Probes {
		t.Fatalf("cand_per_probe_hist_log2 mass %d != probes %d (%v)", histMass, m.Probes, m.CandHist)
	}
}

func TestServerSnapshotBody(t *testing.T) {
	ts, _ := newTestServer(t, 1<<30, "")
	ingestCampaign(t, ts.URL)
	if code := postJSON(t, ts.URL+"/v1/flush", "", nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}

	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	state, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// The body is the combined manifest form: inline per-shard states,
	// each a loadable detector snapshot.
	var man manifestV2
	if err := json.Unmarshal(state, &man); err != nil {
		t.Fatalf("snapshot body is not a manifest: %v", err)
	}
	if man.Version != 2 || man.Shards != 1 || len(man.States) != 1 {
		t.Fatalf("manifest %+v", man)
	}
	restored := stream.New(core.Options{})
	if err := restored.Load(bytes.NewReader(man.States[0])); err != nil {
		t.Fatalf("inline state is not a loadable snapshot: %v", err)
	}
	if restored.NumTemplates() == 0 {
		t.Fatal("no templates restored from snapshot body")
	}
}

func TestServerSnapshotFile(t *testing.T) {
	defaultPath := filepath.Join(t.TempDir(), "state.json")
	ts, _ := newTestServer(t, 1<<30, defaultPath)
	ingestCampaign(t, ts.URL)
	if code := postJSON(t, ts.URL+"/v1/flush", "", nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}

	// Default path (from the server config).
	var snap struct {
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
	}
	if code := postJSON(t, ts.URL+"/v1/snapshot", "", &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	if snap.Path != defaultPath || snap.Bytes == 0 {
		t.Fatalf("snapshot response %+v", snap)
	}

	// The snapshot must boot a fresh sharded daemon with the templates
	// intact (manifest + shard files resolved relative to the manifest).
	sh2 := newTestSharded(t, ShardedConfig{StatePath: defaultPath}, 0)
	tmpls, err := sh2.Templates()
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpls) == 0 {
		t.Fatal("no templates restored")
	}
	if err := sh2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerSnapshotRejectsBody: the snapshot target is the daemon's own
// configuration, so a request body — such as the path a client would
// like written — gets a 400 and nothing is written, with or without a
// state file configured.
func TestServerSnapshotRejectsBody(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state.json")
	target := filepath.Join(dir, "elsewhere.json")
	for _, path := range []string{statePath, ""} {
		ts, _ := newTestServer(t, 1<<30, path)
		ingestCampaign(t, ts.URL)
		body := fmt.Sprintf(`{"path":%q}`, target)
		if code := postJSON(t, ts.URL+"/v1/snapshot", body, nil); code != http.StatusBadRequest {
			t.Fatalf("state %q: snapshot with a body: status %d, want 400", path, code)
		}
	}
	if names, err := os.ReadDir(dir); err != nil || len(names) != 0 {
		t.Fatalf("snapshot with a body wrote %v (err %v)", names, err)
	}
}

func TestServerHealthAndPprof(t *testing.T) {
	ts, _ := newTestServer(t, 0, "")
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}

func TestServerClosedReturns503(t *testing.T) {
	sh := newTestSharded(t, ShardedConfig{}, 0)
	ts := httptest.NewServer(NewServer(sh, "").Handler())
	defer ts.Close()
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/v1/docs", `{"text":"aa bb"}`, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("docs after close: status %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/v1/stats", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("stats after close: status %d, want 503", code)
	}
}
