package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"infoshield/internal/core"
)

// toyCorpus is the paper's toy example (Tables II and III) in a
// background of 30 singleton documents with all-unique words, which grow
// V to a realistic size without clustering themselves.
func toyCorpus() []string {
	docs := []string{
		"This is a great soap, and the 5 dollar price is great",
		"This is a great chair, and the 10 dollar price is great",
		"This is a great hat, and the 3 dollar price is great",
		"This is great blue pen, and the 3 dollar price is so good",
		"I made 30K working on this job - call 123-456.7890 or visit scam.com",
		"I made 30K working from home - call 123-456.7890 or visit fraud.com",
		"Happy birthday to my dear friend Mike",
	}
	for i := 0; i < 30; i++ {
		docs = append(docs, fmt.Sprintf(
			"bg%da bg%db bg%dc bg%dd bg%de bg%df bg%dg bg%dh", i, i, i, i, i, i, i, i))
	}
	return docs
}

func TestRunLSHCoarseAblation(t *testing.T) {
	docs := toyCorpus()
	sus, _ := labels(runLSH(docs, 0), len(docs))
	// The exact-duplicate-heavy part of the toy must still be found; the
	// LSH coarse pass is shingle-based, so near-exact docs 0-2 group.
	if !sus[0] || !sus[1] || !sus[2] {
		t.Errorf("LSH coarse missed the product cluster: %v", sus[:7])
	}
	if sus[6] {
		t.Error("doc 6 wrongly clustered under LSH coarse")
	}
	for i := 7; i < len(sus); i++ {
		if sus[i] {
			t.Errorf("background doc %d clustered under LSH coarse", i)
		}
	}
}

func TestCoarseStrictRequiresMoreOverlap(t *testing.T) {
	shared := "red fox jumps over the lazy dog near the misty river bank"
	docs := [][]string{
		strings.Fields("aardvark1 " + shared + " zebra1"),
		strings.Fields("aardvark2 " + shared + " zebra2"),
	}
	for i := 0; i < 10; i++ {
		docs = append(docs, strings.Fields(fmt.Sprintf(
			"bgy%da bgy%db bgy%dc bgy%dd bgy%de bgy%df", i, i, i, i, i, i)))
	}
	permissive, top := core.Coarse(docs, core.Options{})
	strict := coarseStrict(top, len(docs), 50)
	if len(permissive) == 0 {
		t.Error("permissive coarse should join docs 0,1")
	}
	if len(strict) != 0 {
		t.Errorf("strict coarse joined docs sharing few phrases: %v", strict)
	}
}

func TestCoarseStrictJoinsExactDuplicates(t *testing.T) {
	// Exact duplicates select identical top phrases, so they clear any
	// small minShared threshold — exercising the canonicalized pair
	// counting of coarseStrict.
	doc := strings.Fields(
		"alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi omicron pi")
	docs := [][]string{doc, doc}
	for i := 0; i < 10; i++ {
		docs = append(docs, strings.Fields(fmt.Sprintf(
			"bgz%da bgz%db bgz%dc bgz%dd bgz%de bgz%df", i, i, i, i, i, i)))
	}
	_, top := core.Coarse(docs, core.Options{})
	clusters := coarseStrict(top, len(docs), 2)
	if len(clusters) != 1 || !reflect.DeepEqual(clusters[0], []int{0, 1}) {
		t.Errorf("strict(2) clusters = %v, want [[0 1]]", clusters)
	}
}

func TestCoarseVariantsWorkerInvariance(t *testing.T) {
	// Both alternative coarse passes, mined by core.Refine, must produce
	// the same templates for any worker count.
	docs := toyCorpus()
	for name, run := range map[string]func(workers int) [][]core.TemplateResult{
		"lsh":       func(w int) [][]core.TemplateResult { return runLSH(docs, w) },
		"strict(2)": func(w int) [][]core.TemplateResult { return runStrict(docs, 2, w) },
	} {
		ref := run(1)
		for _, w := range []int{2, 8} {
			if got := run(w); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s workers=%d: templates differ", name, w)
			}
		}
	}
}
