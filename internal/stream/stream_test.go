package stream

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"infoshield/internal/core"
)

// campaign emits near-duplicate docs with a varying last token.
func campaign(n int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = fmt.Sprintf(
			"limited offer buy the premium golden package today visit site%04d.example now", i)
	}
	return docs
}

// noise emits unique-word singleton docs.
func noise(n, salt int) []string {
	docs := make([]string, n)
	for i := range docs {
		k := salt*1000 + i
		docs[i] = fmt.Sprintf("nx%daa nx%dbb nx%dcc nx%ddd nx%dee nx%dff nx%dgg nx%dhh",
			k, k, k, k, k, k, k, k)
	}
	return docs
}

func TestDetectorBatchMining(t *testing.T) {
	d := New(core.Options{})
	d.BatchSize = 1 << 30 // manual flush
	ids := d.AddBatch(append(campaign(20), noise(300, 1)...))
	if d.Pending() != 320 {
		t.Fatalf("pending = %d", d.Pending())
	}
	d.Flush()
	if d.NumTemplates() == 0 {
		t.Fatal("no template mined")
	}
	inTemplate := 0
	for _, id := range ids[:20] {
		if d.Assignment(id).Template >= 0 {
			inTemplate++
		}
	}
	if inTemplate < 18 {
		t.Errorf("only %d/20 campaign docs assigned", inTemplate)
	}
	for _, id := range ids[20:] {
		if a := d.Assignment(id); a.Template != -1 || a.Pending {
			t.Errorf("noise doc %d assigned %+v", id, a)
		}
	}
}

func TestDetectorIncrementalMatch(t *testing.T) {
	d := New(core.Options{})
	d.BatchSize = 1 << 30
	d.AddBatch(append(campaign(20), noise(300, 2)...))
	d.Flush()
	if d.NumTemplates() == 0 {
		t.Fatal("no template mined")
	}
	before := d.Pending()
	// A new campaign member should attach immediately, without buffering.
	id := d.Add("limited offer buy the premium golden package today visit site9999.example now")
	a := d.Assignment(id)
	if a.Template < 0 || a.Pending {
		t.Errorf("new campaign doc not matched: %+v (pending %d -> %d)", a, before, d.Pending())
	}
	// A fresh unrelated doc buffers instead.
	id = d.Add("totally unrelated chatter about gardens and violins tonight")
	if a := d.Assignment(id); !a.Pending {
		t.Errorf("unrelated doc should be pending: %+v", a)
	}
}

func TestDetectorAutoFlush(t *testing.T) {
	d := New(core.Options{})
	// The batch must be large enough that the campaign stays "micro"
	// relative to it (the coarse pass's rarity floor, see internal/tfidf).
	d.BatchSize = 200
	docs := append(campaign(20), noise(180, 3)...)
	d.AddBatch(docs)
	// 200 docs reached BatchSize: auto-flush ran.
	if d.Pending() != 0 {
		t.Errorf("pending = %d after auto-flush", d.Pending())
	}
	if d.NumTemplates() == 0 {
		t.Error("auto-flush mined nothing")
	}
}

func TestDetectorDocCounts(t *testing.T) {
	d := New(core.Options{})
	d.BatchSize = 1 << 30
	d.AddBatch(append(campaign(10), noise(300, 4)...))
	d.Flush()
	if d.NumTemplates() == 0 {
		t.Fatal("no template")
	}
	base := d.Templates()[0].DocCount
	d.Add("limited offer buy the premium golden package today visit site7777.example now")
	if got := d.Templates()[0].DocCount; got != base+1 {
		t.Errorf("DocCount = %d, want %d", got, base+1)
	}
}

func TestDetectorEmptyInputs(t *testing.T) {
	d := New(core.Options{})
	d.Flush() // no-op
	id := d.Add("")
	if a := d.Assignment(id); a.Template != -1 {
		t.Errorf("empty doc assigned: %+v", a)
	}
	if a := d.Assignment(99999); a.Template != -1 || a.Pending {
		t.Errorf("unknown id: %+v", a)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := New(core.Options{})
	d.BatchSize = 1 << 30
	d.AddBatch(append(campaign(20), noise(300, 9)...))
	d.Flush()
	if d.NumTemplates() == 0 {
		t.Fatal("no template to save")
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh detector in a new "process" loads the state and matches a
	// new campaign member immediately.
	d2 := New(core.Options{})
	if err := d2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if d2.NumTemplates() != d.NumTemplates() {
		t.Fatalf("templates %d != %d", d2.NumTemplates(), d.NumTemplates())
	}
	id := d2.Add("limited offer buy the premium golden package today visit site5555.example now")
	if a := d2.Assignment(id); a.Template < 0 || a.Pending {
		t.Errorf("loaded detector failed to match: %+v", a)
	}
	if got, want := d2.Templates()[0].DocCount, d.Templates()[0].DocCount+1; got != want {
		t.Errorf("DocCount after load+match = %d, want %d", got, want)
	}
}

func TestLoadRejectsBadState(t *testing.T) {
	d := New(core.Options{})
	if err := d.Load(strings.NewReader("{not json")); err == nil {
		t.Error("expected decode error")
	}
	if err := d.Load(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("expected version error")
	}
	// Version 1 (templates only) is no longer read.
	if err := d.Load(strings.NewReader(
		`{"version":1,"templates":[{"words":["a"],"wild":[false],"doc_count":1}]}`)); err == nil ||
		!strings.Contains(err.Error(), "unsupported state version 1") {
		t.Errorf("version 1 state: err = %v, want unsupported-version rejection", err)
	}
	if d.NumTemplates() != 0 {
		t.Errorf("rejected states registered %d templates", d.NumTemplates())
	}
	if err := d.Load(strings.NewReader(
		`{"version":2,"templates":[{"words":["a"],"wild":[true,false],"forward":-1}]}`)); err == nil {
		t.Error("expected shape error")
	}
}
