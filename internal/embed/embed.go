// Package embed implements the three text-embedding models the paper's
// baselines are built on — Word2Vec skip-gram with negative sampling
// (Mikolov et al. 2013), Doc2Vec PV-DBOW (Le & Mikolov 2014), and FastText
// subword skip-gram (Bojanowski et al. 2017) — from scratch on the
// standard library, deterministic per seed.
//
// These exist to reproduce the paper's Word2Vec-cl / Doc2Vec-cl /
// FastText-cl baselines (Table VIII): train on the ad corpus, embed each
// document, cluster with HDBSCAN (minimum cluster size 3).
package embed

import (
	"math"
	"math/rand"
)

// Config holds the shared training hyperparameters. Zero fields take the
// defaults documented on each field.
type Config struct {
	Dim       int     // embedding dimensionality (default 50)
	Window    int     // context window radius (default 5)
	Negatives int     // negative samples per positive pair (default 5)
	Epochs    int     // passes over the corpus (default 5)
	LR        float64 // initial learning rate, linearly decayed (default 0.025)
	MinCount  int     // discard words rarer than this (default 2)
	Seed      int64   // rng seed
	// Buckets is the FastText subword hash-bucket count (default 1<<16);
	// ignored by the other models.
	Buckets int
}

func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = 50
	}
	if c.Window == 0 {
		c.Window = 5
	}
	if c.Negatives == 0 {
		c.Negatives = 5
	}
	if c.Epochs == 0 {
		c.Epochs = 5
	}
	if c.LR == 0 {
		c.LR = 0.025
	}
	if c.MinCount == 0 {
		c.MinCount = 2
	}
	if c.Buckets == 0 {
		c.Buckets = 1 << 16
	}
	return c
}

// trainer holds the machinery shared by all three models.
type trainer struct {
	cfg     Config
	words   []string
	wordID  map[string]int
	counts  []int
	docs    [][]int // corpus as word ids (rare words dropped)
	unigram []int32 // negative-sampling table (unigram^0.75)
	rng     *rand.Rand
}

const unigramTableSize = 1 << 18

func newTrainer(docs [][]string, cfg Config) *trainer {
	cfg = cfg.withDefaults()
	t := &trainer{
		cfg:    cfg,
		wordID: make(map[string]int),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	raw := make(map[string]int)
	for _, d := range docs {
		for _, w := range d {
			raw[w]++
		}
	}
	// Deterministic vocab order: first-seen in corpus order.
	for _, d := range docs {
		for _, w := range d {
			if raw[w] < cfg.MinCount {
				continue
			}
			if _, ok := t.wordID[w]; !ok {
				t.wordID[w] = len(t.words)
				t.words = append(t.words, w)
				t.counts = append(t.counts, raw[w])
			}
		}
	}
	t.docs = make([][]int, len(docs))
	for i, d := range docs {
		ids := make([]int, 0, len(d))
		for _, w := range d {
			if id, ok := t.wordID[w]; ok {
				ids = append(ids, id)
			}
		}
		t.docs[i] = ids
	}
	t.buildUnigramTable()
	return t
}

func (t *trainer) buildUnigramTable() {
	if len(t.words) == 0 {
		return
	}
	t.unigram = make([]int32, unigramTableSize)
	total := 0.0
	for _, c := range t.counts {
		total += math.Pow(float64(c), 0.75)
	}
	w, cum := 0, math.Pow(float64(t.counts[0]), 0.75)/total
	for i := range t.unigram {
		t.unigram[i] = int32(w)
		if float64(i)/unigramTableSize > cum && w < len(t.words)-1 {
			w++
			cum += math.Pow(float64(t.counts[w]), 0.75) / total
		}
	}
}

func (t *trainer) sampleNegative() int {
	return int(t.unigram[t.rng.Intn(len(t.unigram))])
}

// sigmoid with clamping; a lookup table is unnecessary at our scales.
func sigmoid(x float64) float64 {
	if x > 8 {
		return 1
	}
	if x < -8 {
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// initVec fills a vector with small uniform noise.
func (t *trainer) initVec(v []float64) {
	for i := range v {
		v[i] = (t.rng.Float64() - 0.5) / float64(len(v))
	}
}

// pairUpdate applies one SGNS step: input vector in, output word out
// (label 1) and cfg.Negatives sampled words (label 0). grad accumulates
// the input-side gradient; the caller applies it (allowing FastText to
// spread it over subwords). Returns the gradient buffer.
func (t *trainer) pairUpdate(in []float64, out int, outVecs [][]float64, lr float64, grad []float64) []float64 {
	for i := range grad {
		grad[i] = 0
	}
	target := out
	for k := 0; k <= t.cfg.Negatives; k++ {
		label := 0.0
		if k == 0 {
			label = 1
		} else {
			target = t.sampleNegative()
			if target == out {
				continue
			}
		}
		ov := outVecs[target]
		dot := 0.0
		for i := range in {
			dot += in[i] * ov[i]
		}
		g := (label - sigmoid(dot)) * lr
		for i := range in {
			grad[i] += g * ov[i]
			ov[i] += g * in[i]
		}
	}
	return grad
}

// Model is a trained word-embedding model (Word2Vec or FastText).
type Model struct {
	dim     int
	wordID  map[string]int
	vecs    [][]float64 // input vectors per word
	subword *subwordIndex
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.dim }

// Vector returns the embedding for word and whether it is known. FastText
// models can embed out-of-vocabulary words through their subwords.
func (m *Model) Vector(word string) ([]float64, bool) {
	if id, ok := m.wordID[word]; ok {
		return m.vecs[id], true
	}
	if m.subword != nil {
		if v := m.subword.oovVector(word, m.dim); v != nil {
			return v, true
		}
	}
	return nil, false
}

// DocVector embeds a document as the mean of its word vectors; nil for
// documents with no known words.
func (m *Model) DocVector(tokens []string) []float64 {
	sum := make([]float64, m.dim)
	n := 0
	for _, w := range tokens {
		if v, ok := m.Vector(w); ok {
			for i := range sum {
				sum[i] += v[i]
			}
			n++
		}
	}
	if n == 0 {
		return nil
	}
	for i := range sum {
		sum[i] /= float64(n)
	}
	return sum
}

// TrainWord2Vec trains a skip-gram negative-sampling model.
func TrainWord2Vec(docs [][]string, cfg Config) *Model {
	t := newTrainer(docs, cfg)
	return t.trainSkipGram(nil)
}

// trainSkipGram runs SGNS; when sub is non-nil, input vectors are the sum
// of the word vector and its subword bucket vectors (FastText).
func (t *trainer) trainSkipGram(sub *subwordIndex) *Model {
	nw := len(t.words)
	m := &Model{dim: t.cfg.Dim, wordID: t.wordID, subword: sub}
	m.vecs = make([][]float64, nw)
	outVecs := make([][]float64, nw)
	for i := 0; i < nw; i++ {
		m.vecs[i] = make([]float64, t.cfg.Dim)
		t.initVec(m.vecs[i])
		outVecs[i] = make([]float64, t.cfg.Dim)
	}
	grad := make([]float64, t.cfg.Dim)
	input := make([]float64, t.cfg.Dim)
	totalSteps := float64(t.cfg.Epochs * len(t.docs))
	step := 0.0
	for epoch := 0; epoch < t.cfg.Epochs; epoch++ {
		for _, doc := range t.docs {
			lr := t.cfg.LR * (1 - step/totalSteps)
			if lr < t.cfg.LR*0.0001 {
				lr = t.cfg.LR * 0.0001
			}
			step++
			for c, center := range doc {
				w := 1 + t.rng.Intn(t.cfg.Window)
				for o := c - w; o <= c+w; o++ {
					if o < 0 || o >= len(doc) || o == c {
						continue
					}
					in := m.vecs[center]
					var grams []int
					if sub != nil {
						grams = sub.grams[center]
						copy(input, m.vecs[center])
						for _, g := range grams {
							bv := sub.bucketVecs[g]
							for i := range input {
								input[i] += bv[i]
							}
						}
						in = input
					}
					g := t.pairUpdate(in, doc[o], outVecs, lr, grad)
					if sub == nil {
						v := m.vecs[center]
						for i := range v {
							v[i] += g[i]
						}
					} else {
						v := m.vecs[center]
						scale := 1.0 / float64(1+len(grams))
						for i := range v {
							v[i] += g[i] * scale
						}
						for _, gr := range grams {
							bv := sub.bucketVecs[gr]
							for i := range bv {
								bv[i] += g[i] * scale
							}
						}
					}
				}
			}
		}
	}
	if sub != nil {
		// Fold subword vectors into the stored word vectors so Vector()
		// is a plain lookup for in-vocabulary words.
		for w := 0; w < nw; w++ {
			v := m.vecs[w]
			for _, g := range sub.grams[w] {
				bv := sub.bucketVecs[g]
				for i := range v {
					v[i] += bv[i]
				}
			}
		}
	}
	return m
}
