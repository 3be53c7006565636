package stream

import (
	"bytes"
	"fmt"
	"runtime"
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
	// Versions 1 (templates only), 2 (no verdict column) and 3 (words
	// spelled out per token) are no longer read.
	for _, c := range []struct{ version, state string }{
		{"1", `{"version":1,"templates":[{"words":["a"],"wild":[false],"doc_count":1}]}`},
		{"2", `{"version":2,"next_id":1,"templates":[]}`},
		{"3", `{"version":3,"templates":[{"words":["a"],"wild":[false],"doc_count":1,"forward":-1}],"verdicts":[0]}`},
	} {
		if err := d.Load(strings.NewReader(c.state)); err == nil ||
			!strings.Contains(err.Error(), "unsupported state version "+c.version) {
			t.Errorf("version %s state: err = %v, want unsupported-version rejection", c.version, err)
		}
	}
	if d.NumTemplates() != 0 {
		t.Errorf("rejected states registered %d templates", d.NumTemplates())
	}
	// One case per validation rule; each is rejected before Load changes
	// anything, so d stays empty throughout.
	a := wordBlob("a")
	live := liveRec(1, 0, 1)
	// A forged length or count must fail before it sizes anything: a
	// 1<<26-token template would take 256 MB of references.
	forgedLen := records(uvarints(1, 0, 0, 1<<26, 1))
	forgedCount := append(uvarints(1<<26, 1), 'a')
	for _, c := range []struct {
		name string
		st   stateV4
		want string
	}{
		{"word index outside the table", stateV4{Words: a, Templates: records(liveRec(1, 0, 2))}, "word index 1 outside the word table"},
		{"verdict out of range", stateV4{Words: a, Templates: records(live), Verdicts: verdictBlob(0, 1)}, "verdict 1 outside"},
		{"verdict below pending", stateV4{Verdicts: verdictBlob(-3)}, "verdict -3 outside"},
		{"pending not marked", stateV4{Pending: []pendingState{{0, "x"}}, Verdicts: verdictBlob(-1)}, "marked pending"},
		{"pending out of range", stateV4{Pending: []pendingState{{1, "x"}}, Verdicts: verdictBlob(-2)}, "marked pending"},
		{"pending descending", stateV4{Pending: []pendingState{{1, "x"}, {0, "y"}}, Verdicts: verdictBlob(-2, -2)}, "marked pending"},
		{"pending missing", stateV4{Verdicts: verdictBlob(-2)}, "1 documents marked pending, 0"},
		{"retained not noise", stateV4{Words: wordBlob("a", "x"), Templates: records(live), Retained: records(docRec(0, 0, 2)), Verdicts: verdictBlob(0)}, "marked noise"},
		{"retained slot", stateV4{Words: a, Retained: records(docRec(0, 0, 0)), Verdicts: verdictBlob(-1)}, "slot in a document"},
		{"word never used", stateV4{Words: wordBlob("a", "b"), Templates: records(live)}, "entry 1 is never used"},
		{"empty words never used", stateV4{Words: append(uvarints(1<<10), make([]byte, 1<<10)...)}, "entry 0 is never used"},
		{"forward out of range", stateV4{Templates: records(deadRec(1))}, "forward 1 outside"},
		{"forward cycle", stateV4{Templates: records(deadRec(1), deadRec(0))}, "cycles"},
		{"forward self-loop", stateV4{Words: a, Templates: records(live, deadRec(1))}, "cycles"},
		{"truncated varint", stateV4{Verdicts: []byte{1, 0x80}}, "truncated"},
		{"forged token count", stateV4{Words: a, Templates: forgedLen}, "length 67108864 exceeds the 1 bytes left"},
		{"forged word count", stateV4{Words: forgedCount}, "length 67108864 exceeds"},
		{"trailing bytes", stateV4{Words: a, Templates: append(records(live), 0)}, "1 trailing bytes"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := d.Load(strings.NewReader(stateJSON(c.st)))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<22 {
			t.Errorf("%s: rejecting a %d-byte state allocated %d bytes", c.name, len(stateJSON(c.st)), grew)
		}
	}
	if d.NumTemplates() != 0 || d.NextID() != 0 || d.Pending() != 0 {
		t.Errorf("rejected states changed the detector: %d templates, next id %d, %d pending",
			d.NumTemplates(), d.NextID(), d.Pending())
	}

	// Template ids are positional, so a state carrying documents or
	// tombstones loads only into an empty detector; a template-only state
	// merges after existing templates.
	docs := stateJSON(stateV4{Words: a, Templates: records(live), Verdicts: verdictBlob(0, -1)})
	tomb := stateJSON(stateV4{Words: a, Templates: records(live, deadRec(0))})
	only := stateJSON(stateV4{Words: a, Templates: records(live)})
	for _, state := range []string{docs, tomb} {
		held := New(core.Options{})
		if _, err := held.Register([]string{"b"}, []bool{false}); err != nil {
			t.Fatal(err)
		}
		if err := held.Load(strings.NewReader(state)); err == nil || !strings.Contains(err.Error(), "empty detector") {
			t.Errorf("state %s into a detector holding templates: err = %v, want empty-detector rejection", state, err)
		}
		if err := New(core.Options{}).Load(strings.NewReader(state)); err != nil {
			t.Errorf("state %s into an empty detector: %v", state, err)
		}
		if err := held.Load(strings.NewReader(only)); err != nil || held.NumTemplates() != 2 {
			t.Errorf("template-only state after a rejection: err = %v, %d templates", err, held.NumTemplates())
		}
	}
	fresh := New(core.Options{})
	if err := fresh.Load(strings.NewReader(docs)); err != nil {
		t.Fatal(err)
	}
	if a := fresh.Assignment(0); a.Template != 0 || a.Pending {
		t.Errorf("restored verdict of document 0: %+v", a)
	}
	if fresh.NextID() != 2 {
		t.Errorf("restored NextID %d, want the column length 2", fresh.NextID())
	}
}
