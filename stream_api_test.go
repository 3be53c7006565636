package infoshield

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"infoshield/internal/datagen"
	"infoshield/internal/stream"
)

func TestStreamDetectorFacade(t *testing.T) {
	s := NewStreamDetector(Config{}, 0)
	var docs []string
	for i := 0; i < 25; i++ {
		docs = append(docs, fmt.Sprintf(
			"flash sale grab the deluxe winter bundle now at shop%04d.example today", i))
	}
	for i := 0; i < 300; i++ {
		docs = append(docs, fmt.Sprintf(
			"sx%daa sx%dbb sx%dcc sx%ddd sx%dee sx%dff sx%dgg sx%dhh", i, i, i, i, i, i, i, i))
	}
	ids := s.AddBatch(docs)
	s.Flush()
	if s.NumTemplates() == 0 {
		t.Fatal("no templates mined")
	}
	matched := 0
	for _, id := range ids[:25] {
		if tpl, _ := s.Template(id); tpl >= 0 {
			matched++
		}
	}
	if matched < 20 {
		t.Errorf("only %d/25 campaign docs matched", matched)
	}
	// New campaign member attaches without buffering.
	id := s.Add("flash sale grab the deluxe winter bundle now at shop9999.example today")
	if tpl, pending := s.Template(id); tpl < 0 || pending {
		t.Errorf("live match failed: tpl=%d pending=%v", tpl, pending)
	}
	if s.Pending() > 1 {
		t.Errorf("pending = %d", s.Pending())
	}

	// Serving stats are exposed and internally consistent.
	st := s.Stats()
	if st.Probes == 0 || st.Candidates == 0 {
		t.Errorf("stats not accumulated: %+v", st)
	}
	if st.DPRuns+st.DPPruned != st.Candidates {
		t.Errorf("stats out of balance: %+v", st)
	}
	if st.Examined > st.Candidates {
		t.Errorf("examined %d exceeds candidates %d", st.Examined, st.Candidates)
	}
	histMass := 0
	for _, c := range st.CandHist {
		histMass += c
	}
	if histMass != st.Probes {
		t.Errorf("candidate histogram mass %d != probes %d", histMass, st.Probes)
	}

	// Bulk-load path: a hand-registered template (slot at the "_") serves
	// immediately, without a mining pass.
	rti, err := s.RegisterTemplate(
		[]string{"mega", "clearance", "single", "day", "event", "_", "doors", "open", "early"},
		[]bool{false, false, false, false, false, true, false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	id = s.Add("mega clearance single day event code77 doors open early")
	if tpl, pending := s.Template(id); tpl != rti || pending {
		t.Errorf("registered template not matched: tpl=%d want %d pending=%v", tpl, rti, pending)
	}
	if _, err := s.RegisterTemplate([]string{"a"}, []bool{true, false}); err == nil {
		t.Error("mismatched words/wild accepted")
	}

	// Save / Load round-trips through the facade.
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStreamDetector(Config{}, 0)
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.NumTemplates() != s.NumTemplates() {
		t.Errorf("loaded %d templates, want %d", s2.NumTemplates(), s.NumTemplates())
	}
	id = s2.Add("flash sale grab the deluxe winter bundle now at shop0042.example today")
	if tpl, pending := s2.Template(id); tpl < 0 || pending {
		t.Errorf("loaded facade failed to match: tpl=%d pending=%v", tpl, pending)
	}
}

// TestStreamDetectorSetLifecycle configures a facade detector through
// SetLifecycle and an internal detector with the same Lifecycle. On a
// drifting campaign stream both must assign every document alike, the
// facade's live template count must never exceed the cap, and both the
// cap and the incremental miner must have acted. The drift stream never
// mines a template that merges, so a second case registers a template
// with two slots and feeds near-duplicates whose slot fills run five
// words each: the template mined from them must merge into the
// registered one on both detectors, with incremental mining off and on.
func TestStreamDetectorSetLifecycle(t *testing.T) {
	const maxTemplates, mineBatch = 4, 32
	lc := StreamLifecycle{MaxTemplates: maxTemplates, Merge: true, Incremental: true}
	s := NewStreamDetector(Config{}, mineBatch)
	s.SetLifecycle(lc)
	ref := stream.New(Config{}.toCore())
	ref.BatchSize = mineBatch
	ref.Lifecycle = lc

	drift := datagen.NewDriftStream(datagen.DriftConfig{Seed: 5, Active: 6, ChurnEvery: 48})
	docs := drift.Docs(0, 720)
	check := func(step string, ids []int) {
		t.Helper()
		for _, id := range ids {
			got, gotPending := s.Template(id)
			if want := ref.Assignment(id); got != want.Template || gotPending != want.Pending {
				t.Fatalf("%s doc %d: facade (%d, pending %v), stream.Detector %+v",
					step, id, got, gotPending, want)
			}
		}
		if live := s.NumLive(); live > maxTemplates {
			t.Fatalf("%s: %d live templates, cap %d", step, live, maxTemplates)
		}
	}
	var ids []int
	for i := 0; i < len(docs); i += 16 {
		chunk := docs[i:min(i+16, len(docs))]
		got, want := s.AddBatch(chunk), ref.AddBatch(chunk)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("docs %d..: ids %v vs %v", i, got, want)
		}
		ids = append(ids, got...)
		check(fmt.Sprintf("after doc %d", i+len(chunk)), got)
	}
	s.Flush()
	ref.Flush()
	check("final", ids)
	if st := s.Stats(); st.Evicted == 0 || st.MineReused == 0 {
		t.Fatalf("the cap evicted nothing or the incremental miner reused nothing: %+v", st.MineStats)
	}

	words := strings.Fields("mega casino bonus spin the lucky wheel tonight and claim your prize now at club royale")
	wild := make([]bool, len(words))
	wild[5], wild[11] = true, true
	var merge []string
	for i := range 10 {
		doc := slices.Clone(words[:5])
		for k := range 5 {
			doc = append(doc, fmt.Sprintf("fa%dx%d", i, k))
		}
		doc = append(doc, words[6:11]...)
		for k := range 5 {
			doc = append(doc, fmt.Sprintf("fb%dx%d", i, k))
		}
		merge = append(merge, strings.Join(append(doc, words[12:]...), " "))
	}
	for i := range 30 {
		merge = append(merge, fmt.Sprintf("noise%da noise%db noise%dc noise%dd noise%de", i, i, i, i, i))
	}
	for _, incremental := range []bool{false, true} {
		lc := StreamLifecycle{Merge: true, Incremental: incremental}
		// check reads s and ref, so they are reassigned, not shadowed.
		s = NewStreamDetector(Config{}, len(merge)+1)
		s.SetLifecycle(lc)
		ref = stream.New(Config{}.toCore())
		ref.BatchSize = len(merge) + 1
		ref.Lifecycle = lc
		if _, err := s.RegisterTemplate(words, wild); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Register(words, wild); err != nil {
			t.Fatal(err)
		}
		ids := s.AddBatch(merge)
		ref.AddBatch(merge)
		s.Flush()
		ref.Flush()
		check(fmt.Sprintf("merge, incremental %v", incremental), ids)
		if got, want := s.Stats().Merged, ref.Stats().Merged; got < 1 || want < 1 {
			t.Fatalf("incremental %v: facade merged %d, stream.Detector %d; want at least 1", incremental, got, want)
		}
	}
}
