// Package core is InfoShield itself: the scalable coarse clustering pass
// (Algorithm 1) followed by the MDL template-mining fine pass (Algorithm
// 4) over each coarse cluster, producing micro-clusters, templates with
// slots, and compression diagnostics.
package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"infoshield/internal/mdl"
	"infoshield/internal/par"
	"infoshield/internal/template"
	"infoshield/internal/tfidf"
	"infoshield/internal/tokenize"
)

// Options configures a run. The zero value reproduces the paper's
// parameter-free defaults; the remaining knobs exist for ablations and
// benchmarks, not for tuning.
type Options struct {
	// MaxNgram caps the coarse pass's tf-idf n-grams (default 5).
	MaxNgram int
	// TopFraction is the fraction of each document's phrases kept in the
	// coarse pass (default 0.10).
	TopFraction float64
	// MinSharedPhrases is the number of top phrases two documents must
	// share to be joined in the coarse graph (default 1 — the paper's
	// permissive setting; >1 is the strictness ablation).
	MinSharedPhrases int
	// UseLSHCoarse swaps the tf-idf phrase graph for MinHash-LSH banding
	// in the coarse pass (ablation; the paper notes Coarse is replaceable
	// by "similar algorithms achieving the same end goal", Advantage 2).
	UseLSHCoarse bool
	// UseStarMSA swaps Partial Order Alignment for the cheaper star MSA
	// (ablation; the paper notes Fine works with any MSA).
	UseStarMSA bool
	// DisableSlots turns slot detection off (ablation).
	DisableSlots bool
	// Workers bounds the worker pool for every parallel stage of the
	// pipeline — tokenization, phrase extraction and scoring, LSH
	// signatures, and concurrent cluster refinement (default:
	// GOMAXPROCS). Any value produces identical output.
	Workers int
}

// TemplateResult is one discovered template with the documents it encodes.
type TemplateResult struct {
	// Template is the frozen constant/slot sequence.
	Template template.Template
	// Docs are corpus document indices encoded by the template, in the
	// order they were aligned (Docs[i] corresponds to Fit row i).
	Docs []int
	// Fit retains the alignment and slot assignment for visualization
	// and cost queries.
	Fit *template.Fit
	// CostBefore is the standalone cost of Docs; CostAfter the cost with
	// this template (its model share plus data cost).
	CostBefore, CostAfter float64
}

// Cluster is one refined coarse cluster holding at least one template.
type Cluster struct {
	// Templates discovered inside this coarse cluster.
	Templates []TemplateResult
	// Docs is the union of the template document sets.
	Docs []int
	// CostBefore/CostAfter aggregate the member templates.
	CostBefore, CostAfter float64
}

// RelativeLength is the cluster's Eq. 7 compression quality.
func (c *Cluster) RelativeLength() float64 {
	return mdl.RelativeLength(c.CostAfter, c.CostBefore)
}

// LowerBound is the cluster's Lemma 1 bound given the vocabulary size.
func (c *Cluster) LowerBound(vocabSize int) float64 {
	return mdl.LowerBound(len(c.Templates), len(c.Docs), vocabSize)
}

// Result is the full output of a run.
type Result struct {
	// Vocab is the corpus vocabulary (V = Vocab.Size()).
	Vocab *tokenize.Vocab
	// Tokens[i] is document i's token-id sequence.
	Tokens [][]int
	// Clusters are the refined micro-clusters, in deterministic order.
	Clusters []Cluster
	// DocTemplate[i] is the global template index encoding document i, or
	// -1. Template indices follow Clusters order.
	DocTemplate []int
	// CoarseClusters counts the candidate clusters the coarse pass made.
	CoarseClusters int
	// CoarseDuration and FineDuration time the two pipeline stages
	// (tokenization is counted in CoarseDuration).
	CoarseDuration, FineDuration time.Duration
	// CoarseStages breaks CoarseDuration into its parallel sub-stages
	// (tokenize / extract / score / components).
	CoarseStages CoarseTimings
	// FineStages breaks the fine pass into its sub-stages (screen / align
	// / consensus / slots), each the elapsed time of every goroutine that
	// ran it added up, waits for a CPU included; FineDuration is the pass's
	// wall time.
	FineStages FineTimings
}

// NumTemplates returns the total template count across clusters.
func (r *Result) NumTemplates() int {
	n := 0
	for i := range r.Clusters {
		n += len(r.Clusters[i].Templates)
	}
	return n
}

// Suspicious returns the per-document binary prediction: true when the
// document is encoded by some template. This is the labeling the paper
// uses for precision/recall.
func (r *Result) Suspicious() []bool {
	out := make([]bool, len(r.DocTemplate))
	for i, t := range r.DocTemplate {
		out[i] = t >= 0
	}
	return out
}

// Run executes the full InfoShield pipeline over raw document texts.
//
// The front half is parallel in two phases that keep the output
// byte-identical to a serial run: word-splitting fans out over
// opt.Workers goroutines (the tokenizer is stateless), then vocabulary
// encoding replays the documents in order so token ids keep their
// first-seen assignment. Phrase extraction and scoring parallelize inside
// coarseEncoded; cluster refinement parallelizes per coarse cluster.
func Run(texts []string, opt Options) *Result {
	start := time.Now()
	var tk tokenize.Tokenizer
	words := tk.All(texts, par.Workers(opt.Workers))
	vocab := tokenize.NewVocab()
	tokens := make([][]int, len(texts))
	for i, w := range words {
		tokens[i] = vocab.Encode(w)
	}
	res := &Result{
		Vocab:       vocab,
		Tokens:      tokens,
		DocTemplate: make([]int, len(texts)),
	}
	for i := range res.DocTemplate {
		res.DocTemplate[i] = -1
	}
	tokenizeDone := time.Now()

	coarse, top, stages := coarseEncoded(words, tokens, vocab, opt)
	stages.Tokenize = tokenizeDone.Sub(start)
	res.CoarseStages = stages
	res.CoarseClusters = len(coarse)
	res.CoarseDuration = time.Since(start)
	fineStart := time.Now()

	refined, fineStages := Refine(coarse, tokens, top, vocab.Size(), opt)
	res.FineStages = fineStages
	res.FineDuration = time.Since(fineStart)

	res.mergeRefined(refined)
	return res
}

// Refine runs InfoShield-Fine over every coarse cluster on a bounded
// worker pool and returns the per-cluster template lists (indexed like
// coarse) plus the stage timings, each the per-goroutine elapsed time of
// every goroutine that ran the stage, added up.
//
// Scheduling is straggler-aware without affecting output: exactly
// min(Workers, clusters) goroutines pull clusters largest-first from a
// size-sorted queue — no goroutine-per-cluster fan-out — and results land
// in refined[ci], keyed by cluster index, so the merge order is
// deterministic regardless of which worker ran what. Every cluster is
// refined serially by the worker that took it, except the largest when it
// is a straggler (see straggler): its worker runs the screen chain, hands
// MSA builds to Workers−1 helper goroutines and acceptance to one more
// (fineClusterPipelined). At most one cluster per pass is pipelined, so
// the pass runs at most 2·Workers goroutines. Workers changes wall clock,
// never results. One worker runs every cluster serially.
func Refine(coarse [][]int, tokens [][]int, top [][]tfidf.PhraseID, vocabSize int, opt Options) ([][]TemplateResult, FineTimings) {
	refined := make([][]TemplateResult, len(coarse))
	var total FineTimings
	if len(coarse) == 0 {
		return refined, total
	}
	// Largest-first queue: the biggest cluster dominates fine wall clock
	// (Lemma 2's Σ k·S·log S·l² is cluster-size-skewed on real corpora),
	// so it must start first, not land on whichever worker frees up last.
	order := make([]int, len(coarse))
	clustered := 0
	for i := range order {
		order[i] = i
		clustered += len(coarse[i])
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := order[a], order[b]
		if len(coarse[ca]) != len(coarse[cb]) {
			return len(coarse[ca]) > len(coarse[cb])
		}
		return ca < cb
	})
	poolSize := par.Workers(opt.Workers)
	workers := min(poolSize, len(coarse))
	if straggler(len(coarse[order[0]]), clustered, poolSize) {
		total.Pipelined = 1
	}
	perWorker := make([]FineTimings, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := &fineScratch{}
			var acc FineTimings
			for {
				k := next.Add(1) - 1
				if k >= int64(len(order)) {
					break
				}
				ci := order[k]
				var out []TemplateResult
				var t FineTimings
				if k == 0 && total.Pipelined == 1 {
					out, t = fineClusterPipelined(coarse[ci], tokens, top, vocabSize, opt, poolSize-1, sc)
				} else {
					out, t = fineCluster(coarse[ci], tokens, top, vocabSize, opt, sc)
				}
				refined[ci] = out
				acc.add(t)
			}
			perWorker[w] = acc
		}(w)
	}
	wg.Wait()
	for _, t := range perWorker {
		total.add(t)
	}
	return refined, total
}

// minPipelined is the smallest cluster Refine pipelines. Mining flushes
// in the serving daemon refine clusters of 3 to 67 documents (mine-drift,
// seeds 1–3) while matching keeps the other CPUs busy, and there the
// pipeline gained nothing: over 265 seed-1 flushes, refined both ways,
// it took 201 ms against the serial loop's 197. Batch Detect's straggler
// is the detect-batch corpus's 4,699-document campaign, which the pipeline
// refines 43% faster with a free CPU; 10 of 11 other Twitter clusters of
// 123 to 11,669 documents ran 23–47% faster (2-vCPU Xeon).
const minPipelined = 128

// straggler reports whether Refine pipelines a cluster of size documents
// out of clustered documents in all on a pool of workers: it does when the
// cluster holds more than 1/workers of them, more than one worker's share
// of the pass, and at least minPipelined. The rule reads only the input's
// cluster sizes, and never fires for one worker.
func straggler(size, clustered, workers int) bool {
	return workers > 1 && size >= minPipelined && size*workers > clustered
}

// mergeRefined folds the per-cluster template lists into Clusters and
// DocTemplate, in cluster order.
func (res *Result) mergeRefined(refined [][]TemplateResult) {
	for _, templates := range refined {
		if len(templates) == 0 {
			continue
		}
		cl := Cluster{Templates: templates}
		for _, tr := range templates {
			cl.Docs = append(cl.Docs, tr.Docs...)
			cl.CostBefore += tr.CostBefore
			cl.CostAfter += tr.CostAfter
		}
		sort.Ints(cl.Docs)
		res.Clusters = append(res.Clusters, cl)
	}
	// Assign global template ids.
	tid := 0
	for i := range res.Clusters {
		for j := range res.Clusters[i].Templates {
			for _, d := range res.Clusters[i].Templates[j].Docs {
				res.DocTemplate[d] = tid
			}
			tid++
		}
	}
}
