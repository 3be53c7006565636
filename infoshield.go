// Package infoshield finds micro-clusters of near-duplicate documents in
// large corpora and summarizes each cluster as a template with slots —
// an implementation of "InfoShield: Generalizable Information-Theoretic
// Human-Trafficking Detection" (Lee, Vajiac, et al., ICDE 2021).
//
// The method is unsupervised, parameter-free, language-independent, and
// interpretable: given N documents where most belong to no cluster, it
// returns small clusters of organized near-duplication, each described by
// one template ("This is a great *, and the * dollar price is great")
// whose slots mark the positions that vary per document. Minimum
// Description Length arbitrates everything: a template exists only if it
// compresses its documents.
//
// Basic use:
//
//	result := infoshield.Detect(texts, infoshield.Config{})
//	for _, c := range result.Clusters() {
//	    for _, t := range c.Templates {
//	        fmt.Println(t.Pattern, t.Docs)
//	    }
//	}
//
// Detect is deterministic for a given input and configuration.
package infoshield

import (
	"infoshield/internal/core"
)

// Config holds the optional knobs. The zero value reproduces the paper's
// parameter-free defaults; everything here exists for ablations and
// benchmarking, not tuning.
type Config struct {
	// MaxNgram caps the coarse pass's tf-idf n-grams (default 5; the
	// paper shows results stabilize by 4-5, Fig. 4).
	MaxNgram int
	// TopPhraseFraction is the fraction of each document's phrases kept
	// as graph edges in the coarse pass (default 0.10).
	TopPhraseFraction float64
	// UseStarMSA swaps Partial Order Alignment for a cheaper star MSA.
	UseStarMSA bool
	// DisableSlots turns slot detection off.
	DisableSlots bool
	// Workers bounds the worker pool used across the whole pipeline:
	// tokenization, coarse phrase extraction and scoring, and concurrent
	// cluster refinement (default GOMAXPROCS).
	// Output is identical for any value — parallelism never changes what
	// Detect returns, only how fast it returns it.
	Workers int
}

func (c Config) toCore() core.Options {
	return core.Options{
		MaxNgram:     c.MaxNgram,
		TopFraction:  c.TopPhraseFraction,
		UseStarMSA:   c.UseStarMSA,
		DisableSlots: c.DisableSlots,
		Workers:      c.Workers,
	}
}

// Detect runs the full InfoShield pipeline (coarse candidate clustering,
// then MDL template mining) over the documents and returns the discovered
// micro-clusters.
func Detect(texts []string, cfg Config) *Result {
	return newResult(core.Run(texts, cfg.toCore()))
}
