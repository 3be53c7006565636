package embed

// DocModel is a trained Doc2Vec (PV-DBOW) model: one vector per training
// document.
type DocModel struct {
	dim  int
	vecs [][]float64
}

// Dim returns the embedding dimensionality.
func (m *DocModel) Dim() int { return m.dim }

// DocVector returns the trained vector of training document i.
func (m *DocModel) DocVector(i int) []float64 { return m.vecs[i] }

// TrainDoc2Vec trains PV-DBOW: each document's vector is optimized to
// predict the words the document contains, with negative sampling. This
// is the distributed-bag-of-words variant of Le & Mikolov (2014) — the
// cheaper and usually stronger of the two PV architectures on short text.
func TrainDoc2Vec(docs [][]string, cfg Config) *DocModel {
	t := newTrainer(docs, cfg)
	m := &DocModel{dim: t.cfg.Dim}
	m.vecs = make([][]float64, len(t.docs))
	for i := range m.vecs {
		m.vecs[i] = make([]float64, t.cfg.Dim)
		t.initVec(m.vecs[i])
	}
	outVecs := make([][]float64, len(t.words))
	for i := range outVecs {
		outVecs[i] = make([]float64, t.cfg.Dim)
	}
	grad := make([]float64, t.cfg.Dim)
	totalSteps := float64(t.cfg.Epochs * len(t.docs))
	step := 0.0
	for epoch := 0; epoch < t.cfg.Epochs; epoch++ {
		for d, doc := range t.docs {
			lr := t.cfg.LR * (1 - step/totalSteps)
			if lr < t.cfg.LR*0.0001 {
				lr = t.cfg.LR * 0.0001
			}
			step++
			dv := m.vecs[d]
			for _, w := range doc {
				g := t.pairUpdate(dv, w, outVecs, lr, grad)
				for i := range dv {
					dv[i] += g[i]
				}
			}
		}
	}
	return m
}
