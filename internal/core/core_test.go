package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"infoshield/internal/datagen"
	"infoshield/internal/tokenize"
)

// toyDocs is the paper's full toy example (Tables II and III).
var toyDocs = []string{
	"This is a great soap, and the 5 dollar price is great",
	"This is a great chair, and the 10 dollar price is great",
	"This is a great hat, and the 3 dollar price is great",
	"This is great blue pen, and the 3 dollar price is so good",
	"I made 30K working on this job - call 123-456.7890 or visit scam.com",
	"I made 30K working from home - call 123-456.7890 or visit fraud.com",
	"Happy birthday to my dear friend Mike",
}

// toyCorpus embeds the 7 toy docs in a background of singleton documents
// with all-unique words. The paper's expected outcome (T1 over docs 0-3,
// T2 over 4-5) assumes a realistically sized vocabulary: with only the 7
// docs, V ≈ 33 and MDL honestly refuses the marginal templates. The
// background docs cannot cluster (every phrase of theirs has df = 1) but
// they grow V to realistic size.
func toyCorpus() []string {
	docs := append([]string(nil), toyDocs...)
	for i := 0; i < 30; i++ {
		docs = append(docs, fmt.Sprintf(
			"bg%da bg%db bg%dc bg%dd bg%de bg%df bg%dg bg%dh", i, i, i, i, i, i, i, i))
	}
	return docs
}

func TestRunToyExample(t *testing.T) {
	res := Run(toyCorpus(), Options{})
	// Expect: docs 0-3 under one template, docs 4-5 under another,
	// doc 6 unclustered — the paper's expected outcome.
	sus := res.Suspicious()
	for i := 0; i <= 5; i++ {
		if !sus[i] {
			t.Errorf("doc %d should be in a template", i)
		}
	}
	if sus[6] {
		t.Error("doc 6 (birthday) should NOT be in a template")
	}
	for i := 7; i < len(sus); i++ {
		if sus[i] {
			t.Errorf("background doc %d should NOT be in a template", i)
		}
	}
	if res.DocTemplate[0] != res.DocTemplate[1] ||
		res.DocTemplate[1] != res.DocTemplate[2] {
		t.Errorf("docs 0-2 split across templates: %v", res.DocTemplate)
	}
	if res.DocTemplate[4] != res.DocTemplate[5] {
		t.Errorf("docs 4-5 split: %v", res.DocTemplate)
	}
	if res.DocTemplate[0] == res.DocTemplate[4] {
		t.Errorf("product and scam templates merged: %v", res.DocTemplate)
	}
	if got := res.NumTemplates(); got < 2 {
		t.Errorf("NumTemplates = %d, want >= 2", got)
	}
}

func TestRunToyDoc4Joins(t *testing.T) {
	// Doc #4 differs by a deletion, an insertion, and a substitution but
	// should still be encoded by T1 (paper, Example 2).
	res := Run(toyCorpus(), Options{})
	if res.DocTemplate[3] != res.DocTemplate[0] {
		t.Errorf("doc 4 not in T1: %v", res.DocTemplate)
	}
}

func TestRunEmptyAndTinyInputs(t *testing.T) {
	res := Run(nil, Options{})
	if res.NumTemplates() != 0 || len(res.Clusters) != 0 {
		t.Errorf("empty corpus: %+v", res)
	}
	res = Run([]string{"single document"}, Options{})
	if res.NumTemplates() != 0 {
		t.Error("one document cannot form a template")
	}
	res = Run([]string{"", "", ""}, Options{})
	if res.NumTemplates() != 0 {
		t.Error("empty texts cannot form templates")
	}
}

func TestRunExactDuplicates(t *testing.T) {
	docs := []string{
		"buy cheap pills online now visit pharma.example today",
		"buy cheap pills online now visit pharma.example today",
		"buy cheap pills online now visit pharma.example today",
		"the weather is nice in pittsburgh this afternoon really",
		"completely different text about gardening and tomato plants",
	}
	res := Run(docs, Options{})
	sus := res.Suspicious()
	if !sus[0] || !sus[1] || !sus[2] {
		t.Errorf("duplicates not clustered: %v", sus)
	}
	if sus[3] || sus[4] {
		t.Errorf("singletons wrongly clustered: %v", sus)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(res.Clusters))
	}
	cl := res.Clusters[0]
	if cl.RelativeLength() >= 1 {
		t.Errorf("duplicate cluster relative length %v, want < 1", cl.RelativeLength())
	}
	if cl.RelativeLength() < cl.LowerBound(res.Vocab.Size()) {
		t.Errorf("relative length %v below lower bound %v",
			cl.RelativeLength(), cl.LowerBound(res.Vocab.Size()))
	}
}

func TestRunDeterministic(t *testing.T) {
	docs := toyCorpus()
	a := Run(docs, Options{})
	b := Run(docs, Options{})
	if !reflect.DeepEqual(a.DocTemplate, b.DocTemplate) {
		t.Errorf("non-deterministic: %v vs %v", a.DocTemplate, b.DocTemplate)
	}
}

func TestRunStarMSAAblation(t *testing.T) {
	res := Run(toyCorpus(), Options{UseStarMSA: true})
	sus := res.Suspicious()
	if !sus[0] || !sus[1] || !sus[2] {
		t.Errorf("star MSA misses the product cluster: %v", sus)
	}
}

func TestRunDisableSlotsAblation(t *testing.T) {
	res := Run(toyCorpus(), Options{DisableSlots: true})
	for i := range res.Clusters {
		for _, tr := range res.Clusters[i].Templates {
			if tr.Template.NumSlots() != 0 {
				t.Errorf("slots present despite DisableSlots")
			}
		}
	}
}

func TestCoarseGroupsBySharedPhrase(t *testing.T) {
	// Near-duplicates share a constant chunk long enough that the
	// documents' own unique-word phrases (df=1, which rank highest)
	// cannot tile over it — the realistic spam shape.
	shared := "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu"
	docs := [][]string{
		strings.Fields("unique1a " + shared + " unique1b"),
		strings.Fields("unique2a " + shared + " unique2b"),
	}
	// Background singletons: with only a handful of documents, idf(df=2)
	// would fall under the relative selection floor and nothing could
	// ever connect — tiny corpora are out of the coarse pass's domain.
	for i := 0; i < 10; i++ {
		docs = append(docs, strings.Fields(fmt.Sprintf(
			"bgx%da bgx%db bgx%dc bgx%dd bgx%de bgx%df", i, i, i, i, i, i)))
	}
	clusters, _ := Coarse(docs, Options{})
	if len(clusters) != 1 {
		t.Fatalf("clusters = %v", clusters)
	}
	if !reflect.DeepEqual(clusters[0], []int{0, 1}) {
		t.Errorf("cluster = %v", clusters[0])
	}
}

func TestClusterAccounting(t *testing.T) {
	res := Run(toyCorpus(), Options{})
	for ci := range res.Clusters {
		cl := &res.Clusters[ci]
		if cl.CostAfter >= cl.CostBefore {
			t.Errorf("cluster %d: accepted template did not compress (%v >= %v)",
				ci, cl.CostAfter, cl.CostBefore)
		}
		n := 0
		for _, tr := range cl.Templates {
			n += len(tr.Docs)
			if len(tr.Docs) < 2 {
				t.Errorf("template encodes %d < 2 docs", len(tr.Docs))
			}
		}
		if n != cl.NumDocs() {
			t.Errorf("cluster doc count %d != sum of template docs %d", cl.NumDocs(), n)
		}
	}
}

// Property: every accepted cluster compresses (relative length < 1) and
// respects its Lemma-1 lower bound, on randomized spam-like corpora.
func TestRunInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vocabulary := strings.Fields(
			"alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima mike november oscar papa")
		var docs []string
		// Two spam campaigns of near-duplicates.
		for c := 0; c < 2; c++ {
			base := make([]string, 10)
			for i := range base {
				base[i] = vocabulary[rng.Intn(len(vocabulary))]
			}
			for k := 0; k < 4; k++ {
				dup := append([]string(nil), base...)
				if rng.Intn(2) == 0 {
					dup[rng.Intn(len(dup))] = fmt.Sprintf("fill%d", rng.Intn(9))
				}
				docs = append(docs, strings.Join(dup, " "))
			}
		}
		// Background singletons.
		for k := 0; k < 10; k++ {
			doc := make([]string, 8)
			for i := range doc {
				doc[i] = fmt.Sprintf("%s%d", vocabulary[rng.Intn(len(vocabulary))], rng.Intn(50))
			}
			docs = append(docs, strings.Join(doc, " "))
		}
		res := Run(docs, Options{})
		for i := range res.Clusters {
			cl := &res.Clusters[i]
			rl := cl.RelativeLength()
			if rl >= 1 {
				return false
			}
			if rl < cl.LowerBound(res.Vocab.Size())-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: DocTemplate is consistent with Clusters' doc lists.
func TestDocTemplateConsistency(t *testing.T) {
	res := Run(toyCorpus(), Options{})
	seen := make(map[int]int)
	tid := 0
	for i := range res.Clusters {
		for _, tr := range res.Clusters[i].Templates {
			for _, d := range tr.Docs {
				seen[d] = tid
			}
			tid++
		}
	}
	for d, want := range seen {
		if res.DocTemplate[d] != want {
			t.Errorf("doc %d template = %d, want %d", d, res.DocTemplate[d], want)
		}
	}
	for d, tmpl := range res.DocTemplate {
		if tmpl >= 0 {
			if _, ok := seen[d]; !ok {
				t.Errorf("doc %d labeled %d but in no cluster", d, tmpl)
			}
		}
	}
}

func TestRunWorkerInvariance(t *testing.T) {
	// The whole pipeline — tokenize, coarse, fine — must produce the
	// same Result for any worker count.
	docs := toyCorpus()
	ref := Run(docs, Options{Workers: 1})
	for _, w := range []int{2, 8} {
		got := Run(docs, Options{Workers: w})
		if !reflect.DeepEqual(got.DocTemplate, ref.DocTemplate) {
			t.Errorf("workers=%d: DocTemplate differs", w)
		}
		if !reflect.DeepEqual(got.Clusters, ref.Clusters) {
			t.Errorf("workers=%d: Clusters differ", w)
		}
	}
}

// NumDocs returns the number of documents the cluster's templates encode.
func (c *Cluster) NumDocs() int { return len(c.Docs) }

// TestPipelinedClusterMatchesSerial refines the largest coarse cluster of
// a Twitter corpus serially and down the pipeline, with one and with three
// MSA helpers: the template lists must be deeply equal, costs bit for bit.
// The worker-equivalence gates compare whole runs; this one pins the
// pipeline itself, whichever clusters Refine's straggler rule picks.
func TestPipelinedClusterMatchesSerial(t *testing.T) {
	texts := datagen.Twitter(datagen.TwitterConfig{Seed: 1, GenuineAccounts: 8, BotAccounts: 8}).Texts()
	var tk tokenize.Tokenizer
	words := tk.All(texts, 1)
	vocab := tokenize.NewVocab()
	tokens := make([][]int, len(words))
	for i, w := range words {
		tokens[i] = vocab.Encode(w)
	}
	clusters, top := Coarse(words, Options{})
	big := clusters[0]
	for _, c := range clusters {
		if len(c) > len(big) {
			big = c
		}
	}
	sc := &fineScratch{}
	for _, opt := range []Options{{}, {UseStarMSA: true}, {DisableSlots: true}} {
		want, _ := fineCluster(big, tokens, top, vocab.Size(), opt, sc)
		if len(want) < 2 {
			t.Fatalf("opt %+v: the %d-document cluster mined %d templates; the comparison is vacuous", opt, len(big), len(want))
		}
		for _, helpers := range []int{1, 3} {
			got, _ := fineClusterPipelined(big, tokens, top, vocab.Size(), opt, helpers, sc)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("opt %+v, %d helpers: pipelined templates differ from the serial refinement", opt, helpers)
				continue
			}
			for i := range want {
				g, w := got[i], want[i]
				if math.Float64bits(g.CostBefore) != math.Float64bits(w.CostBefore) ||
					math.Float64bits(g.CostAfter) != math.Float64bits(w.CostAfter) {
					t.Errorf("opt %+v, %d helpers: template %d costs (%v, %v), serial (%v, %v)",
						opt, helpers, i, g.CostBefore, g.CostAfter, w.CostBefore, w.CostAfter)
				}
			}
		}
	}
}
