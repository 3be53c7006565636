package main

import (
	"math/rand"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
	"infoshield/internal/stream"
)

// daemonSpec is one workload run against a live infoshieldd. Rates are in
// documents per second; capPerSec sizes the closed-loop capacity phase in
// documents per second of run length, a fixed count for a given -seconds.
type daemonSpec struct {
	name       string
	flags      []string // daemon flags beyond -addr and -state
	lowRate    float64
	highRate   float64
	capPerSec  float64
	docsPerReq int
	// readRate > 0 sends GET /v1/assignments/{id} on the second
	// connection at that rate during the fixed-rate windows, whose writes
	// then all go over the first.
	readRate float64
	// bootState boots the daemon from the seed state file instead of
	// seeding it over HTTP.
	bootState bool
	// newDetector builds the detector the daemon flags configure: the
	// serial reference and every peel level use it.
	newDetector func() *stream.Detector
	gen         func(seed int64) *inputs
}

// inputs are a workload's generated documents.
type inputs struct {
	// seedDocs are posted and flushed during set-up.
	seedDocs []string
	// templates are registered into the seed state directly.
	templates []datagen.ScaleTemplate
	// next returns the workload's documents in order.
	next func() string
}

// scaleStream mixes near-duplicate probes of a template set (7 in 8) with
// unique noise (1 in 8).
func scaleStream(set *datagen.ScaleSet, rng *rand.Rand) func() string {
	return func() string {
		if rng.Intn(8) == 0 {
			return set.Noise(rng)
		}
		return set.Probe(rng, rng.Intn(len(set.Templates)))
	}
}

func defaultDetector() *stream.Detector { return stream.New(core.Options{}) }

var daemonSpecs = []daemonSpec{
	{
		// Per-request HTTP/JSON and coalescer cost dominate; matching
		// against 220 templates is cheap.
		name:        "ingest-single",
		lowRate:     3000,
		highRate:    9000,
		capPerSec:   18000,
		docsPerReq:  1,
		newDetector: defaultDetector,
		gen: func(seed int64) *inputs {
			const campaigns, perCampaign = 220, 8
			set := datagen.ScaleTemplates(datagen.ScaleConfig{Seed: seed, Templates: campaigns})
			rng := rand.New(rand.NewSource(seed))
			var docs []string
			for ti := 0; ti < campaigns; ti++ {
				for k := 0; k < perCampaign; k++ {
					docs = append(docs, set.Probe(rng, ti))
				}
				// Mining needs idf contrast: unique noise between campaigns.
				docs = append(docs, set.Noise(rng))
			}
			rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
			return &inputs{seedDocs: docs, next: scaleStream(set, rng)}
		},
	},
	{
		// Matching and tokenizing each document dominate; the shell cost is
		// shared by 64 documents per request.
		name:        "ingest-bulk-100k",
		lowRate:     6000,
		highRate:    18000,
		capPerSec:   24000,
		docsPerReq:  64,
		bootState:   true,
		newDetector: defaultDetector,
		gen: func(seed int64) *inputs {
			set := datagen.ScaleTemplates(datagen.ScaleConfig{Seed: seed, Templates: 100000})
			rng := rand.New(rand.NewSource(seed))
			return &inputs{templates: set.Templates, next: scaleStream(set, rng)}
		},
	},
	{
		// A mining pass runs inline on the sequencer every ~256 pending
		// documents, so writes pay for flushes and reads queue behind
		// batches and flushes.
		name: "mine-drift",
		flags: []string{"-incremental-mine", "-merge-templates", "-max-templates", "64",
			"-template-ttl", "50000", "-mine-batch", "256"},
		lowRate:    3000,
		highRate:   8000,
		capPerSec:  12000,
		docsPerReq: 16,
		readRate:   2000,
		newDetector: func() *stream.Detector {
			d := stream.New(core.Options{})
			d.BatchSize = 256
			d.Lifecycle = stream.Lifecycle{MaxTemplates: 64, TTL: 50000, Merge: true, Incremental: true}
			return d
		},
		gen: func(seed int64) *inputs {
			const seedDocs = 2048
			ds := datagen.NewDriftStream(datagen.DriftConfig{Seed: seed})
			k := seedDocs
			return &inputs{seedDocs: ds.Docs(0, seedDocs), next: func() string {
				k++
				return ds.Doc(k - 1)
			}}
		},
	},
}

const detectBatch = "detect-batch"

// workloadNames lists every workload in run order.
func workloadNames() []string {
	var names []string
	for _, s := range daemonSpecs {
		names = append(names, s.name)
	}
	return append(names, detectBatch)
}

func findSpec(name string) (daemonSpec, bool) {
	for _, s := range daemonSpecs {
		if s.name == name {
			return s, true
		}
	}
	return daemonSpec{}, false
}
