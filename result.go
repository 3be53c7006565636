package infoshield

import (
	"fmt"
	"io"
	"strings"
	"time"

	"infoshield/internal/core"
	"infoshield/internal/viz"
)

// Result is the outcome of Detect.
type Result struct {
	res      *core.Result
	clusters []Cluster
}

// Cluster is one refined micro-cluster: at least one template plus
// compression diagnostics.
type Cluster struct {
	// Templates discovered inside this cluster.
	Templates []Template
	// Docs is the union of member document indices (into the Detect
	// input), ascending.
	Docs []int
	// RelativeLength is compressed/uncompressed cost (Eq. 7): near its
	// LowerBound means near-duplicates; near 1 means weak structure.
	RelativeLength float64
	// LowerBound is the Lemma-1 floor t/n + 1/lg V for this cluster.
	LowerBound float64
}

// Template is one discovered pattern.
type Template struct {
	// Pattern renders constants verbatim and slots as "*".
	Pattern string
	// Slots is the number of slot positions.
	Slots int
	// Docs are the indices of the documents this template encodes, in
	// alignment order.
	Docs []int
}

func newResult(res *core.Result) *Result {
	r := &Result{res: res}
	for i := range res.Clusters {
		cc := &res.Clusters[i]
		pc := Cluster{
			Docs:           cc.Docs,
			RelativeLength: cc.RelativeLength(),
			LowerBound:     cc.LowerBound(res.Vocab.Size()),
		}
		for _, tr := range cc.Templates {
			pc.Templates = append(pc.Templates, Template{
				Pattern: patternString(tr, res),
				Slots:   tr.Template.NumSlots(),
				Docs:    tr.Docs,
			})
		}
		r.clusters = append(r.clusters, pc)
	}
	return r
}

// patternString renders constants verbatim and slots as "*".
func patternString(tr core.TemplateResult, res *core.Result) string {
	var sb strings.Builder
	for i, id := range tr.Template.TokenIDs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if tr.Template.IsSlot[i] {
			sb.WriteByte('*')
		} else {
			sb.WriteString(res.Vocab.Word(id))
		}
	}
	return sb.String()
}

// Clusters returns the discovered micro-clusters in deterministic order.
func (r *Result) Clusters() []Cluster { return r.clusters }

// Suspicious returns, per input document, whether it was encoded by any
// template — the binary prediction the paper evaluates precision and
// recall on.
func (r *Result) Suspicious() []bool { return r.res.Suspicious() }

// DocTemplate returns, per input document, the global index of the
// template that encodes it, or -1. Template indices enumerate
// Clusters()[i].Templates in order.
func (r *Result) DocTemplate() []int { return r.res.DocTemplate }

// NumTemplates returns the total number of discovered templates.
func (r *Result) NumTemplates() int { return r.res.NumTemplates() }

// VocabSize returns V, the number of distinct tokens in the corpus.
func (r *Result) VocabSize() int { return r.res.Vocab.Size() }

// Timings reports the wall-clock durations of a Detect run's pipeline
// stages. Coarse is the whole front half (and includes the four
// sub-stage durations); Fine is the MDL refinement of the candidate
// clusters.
type Timings struct {
	// Tokenize covers word-splitting and vocabulary encoding.
	Tokenize time.Duration
	// CoarseExtract covers phrase-set hashing and document-frequency
	// counting; CoarseScore the tf-idf scoring and top-phrase selection;
	// CoarseComponents the phrase graph and connected components.
	CoarseExtract, CoarseScore, CoarseComponents time.Duration
	// FineScreen covers candidate screening (overlap bound, bit-parallel
	// distance and the conditional-alignment test); FineAlign the MSA
	// construction; FineConsensus the consensus search; FineSlots slot
	// detection. Each fine-stage duration is the elapsed time of every
	// goroutine that ran the stage, added up with any wait for a CPU
	// included, so with Workers > 1 it may exceed Fine, the wall-clock
	// total.
	FineScreen, FineAlign, FineConsensus, FineSlots time.Duration
	// Coarse and Fine are the two pipeline halves' totals.
	Coarse, Fine time.Duration
}

// Timings returns the stage durations of the run that produced r.
func (r *Result) Timings() Timings {
	s := r.res.CoarseStages
	f := r.res.FineStages
	return Timings{
		Tokenize:         s.Tokenize,
		CoarseExtract:    s.Extract,
		CoarseScore:      s.Score,
		CoarseComponents: s.Components,
		FineScreen:       f.Screen,
		FineAlign:        f.Align,
		FineConsensus:    f.Consensus,
		FineSlots:        f.Slots,
		Coarse:           r.res.CoarseDuration,
		Fine:             r.res.FineDuration,
	}
}

// WriteText renders every cluster with ANSI colors (constants plain,
// slots red, insertions green, deletions struck, substitutions yellow).
func (r *Result) WriteText(w io.Writer) {
	tid := 0
	for ci := range r.res.Clusters {
		for _, tr := range r.res.Clusters[ci].Templates {
			label := fmt.Sprintf("T%d", tid)
			viz.WriteCluster(w, label, tr.Template, tr.Fit, tr.Docs, r.res.Vocab, viz.ANSIPalette)
			tid++
		}
	}
}

// WriteHTML renders every cluster as a standalone HTML report.
func (r *Result) WriteHTML(w io.Writer) error {
	var clusters []viz.HTMLCluster
	tid := 0
	for ci := range r.res.Clusters {
		for _, tr := range r.res.Clusters[ci].Templates {
			clusters = append(clusters, viz.HTMLCluster{
				Label:  fmt.Sprintf("Template %d (%d documents)", tid, len(tr.Docs)),
				T:      tr.Template,
				Fit:    tr.Fit,
				DocIDs: tr.Docs,
			})
			tid++
		}
	}
	return viz.WriteHTML(w, clusters, r.res.Vocab)
}
