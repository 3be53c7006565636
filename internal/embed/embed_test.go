package embed

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Cosine returns the cosine similarity between two vectors (0 for nil or
// zero-norm inputs).
func Cosine(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 || len(a) != len(b) {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// corpus with two clear topics: words inside a topic co-occur, so their
// vectors should end up closer than cross-topic pairs.
func topicCorpus(n int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	topicA := strings.Fields("cat dog puppy kitten fur paw tail whisker bark meow")
	topicB := strings.Fields("stock bond market trade price index fund share yield broker")
	docs := make([][]string, n)
	for i := range docs {
		bank := topicA
		if i%2 == 1 {
			bank = topicB
		}
		doc := make([]string, 12)
		for j := range doc {
			doc[j] = bank[rng.Intn(len(bank))]
		}
		docs[i] = doc
	}
	return docs
}

func TestWord2VecTopicSeparation(t *testing.T) {
	docs := topicCorpus(400, 1)
	m := TrainWord2Vec(docs, Config{Dim: 24, Epochs: 8, Seed: 1})
	vcat, ok1 := m.Vector("cat")
	vdog, ok2 := m.Vector("dog")
	vstock, ok3 := m.Vector("stock")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("vocabulary missing expected words")
	}
	within := Cosine(vcat, vdog)
	across := Cosine(vcat, vstock)
	if within <= across {
		t.Errorf("within-topic similarity %v <= across-topic %v", within, across)
	}
}

func TestWord2VecDeterministic(t *testing.T) {
	docs := topicCorpus(50, 2)
	a := TrainWord2Vec(docs, Config{Dim: 8, Epochs: 2, Seed: 5})
	b := TrainWord2Vec(docs, Config{Dim: 8, Epochs: 2, Seed: 5})
	va, _ := a.Vector("cat")
	vb, _ := b.Vector("cat")
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("same seed produced different vectors")
		}
	}
}

func TestWord2VecMinCount(t *testing.T) {
	docs := [][]string{
		{"common", "common", "rare"},
		{"common", "common"},
	}
	m := TrainWord2Vec(docs, Config{Dim: 4, MinCount: 2, Seed: 1})
	if _, ok := m.Vector("rare"); ok {
		t.Error("rare word should be pruned by MinCount")
	}
	if _, ok := m.Vector("common"); !ok {
		t.Error("common word missing")
	}
}

func TestDocVectorMean(t *testing.T) {
	docs := topicCorpus(100, 3)
	m := TrainWord2Vec(docs, Config{Dim: 12, Epochs: 3, Seed: 3})
	v := m.DocVector([]string{"cat", "dog"})
	if v == nil {
		t.Fatal("nil doc vector")
	}
	if got := m.DocVector([]string{"zzz-unknown"}); got != nil {
		t.Errorf("unknown-only doc should embed to nil, got %v", got)
	}
	// Same-topic docs more similar than cross-topic docs.
	a := m.DocVector(docs[0])
	b := m.DocVector(docs[2])
	c := m.DocVector(docs[1])
	if Cosine(a, b) <= Cosine(a, c) {
		t.Error("same-topic docs should be more similar")
	}
}

func TestFastTextSubwordOOV(t *testing.T) {
	docs := topicCorpus(200, 4)
	m := TrainFastText(docs, Config{Dim: 16, Epochs: 4, Seed: 4})
	// A misspelling embeds through shared subwords and should land near
	// the correct word.
	v1, ok := m.Vector("kitten")
	if !ok {
		t.Fatal("kitten missing")
	}
	v2, ok := m.Vector("kittenz") // OOV
	if !ok {
		t.Fatal("OOV word should embed through subwords")
	}
	vFar, _ := m.Vector("broker")
	if Cosine(v1, v2) <= Cosine(v1, vFar) {
		t.Errorf("misspelling similarity %v <= unrelated %v", Cosine(v1, v2), Cosine(v1, vFar))
	}
}

func TestDoc2VecTopicSeparation(t *testing.T) {
	docs := topicCorpus(300, 6)
	m := TrainDoc2Vec(docs, Config{Dim: 16, Epochs: 10, Seed: 6})
	if m.NumDocs() != 300 {
		t.Fatalf("NumDocs = %d", m.NumDocs())
	}
	// doc 0 and doc 2 share a topic; doc 1 does not.
	same := Cosine(m.DocVector(0), m.DocVector(2))
	diff := Cosine(m.DocVector(0), m.DocVector(1))
	if same <= diff {
		t.Errorf("same-topic %v <= diff-topic %v", same, diff)
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]float64{1, 0}, []float64{1, 0}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Cosine identical = %v", got)
	}
	if got := Cosine([]float64{1, 0}, []float64{0, 1}); math.Abs(got) > 1e-12 {
		t.Errorf("Cosine orthogonal = %v", got)
	}
	if got := Cosine(nil, []float64{1}); got != 0 {
		t.Errorf("Cosine nil = %v", got)
	}
	if got := Cosine([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("Cosine zero-norm = %v", got)
	}
}

func TestCharNgrams(t *testing.T) {
	grams := charNgrams("ab", 3, 5, 1024)
	// "<ab>" has runes < a b >: 3-grams: <ab, ab>; 4-gram: <ab>. Total 3.
	if len(grams) != 3 {
		t.Errorf("ngram count = %d, want 3", len(grams))
	}
	for _, g := range grams {
		if g < 0 || g >= 1024 {
			t.Errorf("bucket %d out of range", g)
		}
	}
}

func TestEmptyCorpus(t *testing.T) {
	m := TrainWord2Vec(nil, Config{Dim: 4, Seed: 1})
	if _, ok := m.Vector("anything"); ok {
		t.Error("empty corpus should know no words")
	}
	d := TrainDoc2Vec(nil, Config{Dim: 4, Seed: 1})
	if d.NumDocs() != 0 {
		t.Error("empty corpus should have no doc vectors")
	}
}

func TestFastTextDeterministic(t *testing.T) {
	docs := topicCorpus(60, 7)
	a := TrainFastText(docs, Config{Dim: 8, Epochs: 2, Seed: 9})
	b := TrainFastText(docs, Config{Dim: 8, Epochs: 2, Seed: 9})
	va, _ := a.Vector("cat")
	vb, _ := b.Vector("cat")
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("same seed produced different fasttext vectors")
		}
	}
}
