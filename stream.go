package infoshield

import (
	"io"

	"infoshield/internal/stream"
)

// StreamDetector ingests documents incrementally: each document either
// attaches to an already-mined template immediately (the same MDL
// criterion as the batch pipeline, with slots matching as wildcards) or
// buffers until BatchSize documents accumulate, at which point the full
// pipeline mines new templates from the buffer.
//
// This is the deployment shape of the paper's application: ads and tweets
// arrive continuously, and known campaigns should be recognized without
// re-clustering the world.
type StreamDetector struct {
	d *stream.Detector
}

// NewStreamDetector creates an empty incremental detector. batchSize <= 0
// selects the default (512).
func NewStreamDetector(cfg Config, batchSize int) *StreamDetector {
	d := stream.New(cfg.toCore())
	if batchSize > 0 {
		d.BatchSize = batchSize
	}
	return &StreamDetector{d: d}
}

// StreamLifecycle bounds a long-running detector. The zero value keeps
// today's behavior: every mined template lives forever and each flush
// re-mines only the pending buffer.
type StreamLifecycle struct {
	// MaxTemplates caps the live template count; 0 means unbounded. When
	// a flush pushes the count over the cap, the least-recently-matched
	// templates are evicted (ties broken by smaller DocCount, then lower
	// index).
	MaxTemplates int
	// TTL retires a template once more than TTL documents have been
	// ingested since it last matched; 0 disables age-out.
	TTL int
	// Merge folds a freshly mined template into an existing near-duplicate
	// when the MDL cost says the pair compresses better as one.
	Merge bool
	// Incremental carries document-frequency counts and recent unmatched
	// documents across flushes, so each mining pass clusters only new and
	// touched documents instead of re-clustering the buffer from scratch.
	// The carried-over window holds an unmatched document for at most 8
	// flushes and at most 8×batchSize documents.
	Incremental bool
}

// SetLifecycle configures template aging, eviction, merging, and
// incremental mining. Call before ingesting documents.
func (s *StreamDetector) SetLifecycle(lc StreamLifecycle) {
	s.d.Lifecycle = stream.Lifecycle{
		MaxTemplates: lc.MaxTemplates,
		TTL:          lc.TTL,
		Merge:        lc.Merge,
		Incremental:  lc.Incremental,
	}
}

// Add ingests one document and returns its id.
func (s *StreamDetector) Add(text string) int { return s.d.Add(text) }

// AddBatch ingests many documents and returns their ids.
func (s *StreamDetector) AddBatch(texts []string) []int { return s.d.AddBatch(texts) }

// Flush forces a mining pass over the buffered documents.
func (s *StreamDetector) Flush() { s.d.Flush() }

// Template returns the template index assigned to a document id, or -1.
// pending reports that the document still waits for the next mining pass.
func (s *StreamDetector) Template(id int) (template int, pending bool) {
	a := s.d.Assignment(id)
	return a.Template, a.Pending
}

// NumTemplates returns the number of template slots allocated so far,
// including retired ones — indices returned by Template stay in range.
func (s *StreamDetector) NumTemplates() int { return s.d.NumTemplates() }

// NumLive returns the number of templates currently matching documents
// (mined or registered, minus evicted, aged-out, and merged-away).
func (s *StreamDetector) NumLive() int { return s.d.NumLive() }

// StreamTemplate is a reporting view of one mined template.
type StreamTemplate struct {
	// Pattern renders constants verbatim and slots as "*".
	Pattern string
	// Slots is the number of slot positions.
	Slots int
	// DocCount is the running number of documents the template has
	// encoded (mined members plus later streaming matches).
	DocCount int
	// Dead marks a retired slot (evicted, aged out, or merged away).
	// Positions are stable, so historical Template verdicts still index
	// into this slice.
	Dead bool
}

// Templates renders the mined templates for reporting, in mining order
// (indices match the values returned by Template).
func (s *StreamDetector) Templates() []StreamTemplate {
	out := make([]StreamTemplate, s.d.NumTemplates())
	for i := range out {
		ti := s.d.TemplateInfo(i)
		out[i] = StreamTemplate{Pattern: ti.Pattern, Slots: ti.Slots, DocCount: ti.DocCount, Dead: ti.Dead}
	}
	return out
}

// Pending returns the number of buffered documents.
func (s *StreamDetector) Pending() int { return s.d.Pending() }

// StreamStats reports the cumulative work of the serving path's template
// matcher — the streaming analogue of Result.Timings(). DPPruned over
// Candidates is the DP-skip rate: the fraction of template comparisons
// the tiered index and its admissible lower bounds resolved without
// running the wildcard alignment.
type StreamStats struct {
	// Probes counts documents tested against a non-empty template set.
	Probes int
	// Candidates counts template candidates considered across all probes.
	Candidates int
	// Examined counts candidates that survived the tiered index's bucket
	// and mass pruning and reached the per-candidate bounds.
	Examined int
	// DPRuns counts full wildcard-alignment DPs executed.
	DPRuns int
	// DPPruned counts candidates skipped by the admissible lower bounds
	// (bucket skips, mass prunes, and per-candidate rejections).
	DPPruned int
	// BitDPRuns counts bit-parallel exact-distance evaluations.
	BitDPRuns int
	// BitDPPruned counts candidates the exact-distance refinement
	// rejected after the overlap bound had passed them.
	BitDPPruned int
	// BandRuns counts exact alignments routed through the banded DP
	// (band seeded by the bit-parallel distance); BandRetries counts band
	// widenings — zero in healthy operation, since the seed is exact.
	BandRuns    int
	BandRetries int
	// BitmapSkips counts probes the token → bucket-set bitmap resolved
	// without touching a postings chunk; PostingsWalks counts probes that
	// walked at least one chain. Together they partition the probes the
	// pruning index served.
	BitmapSkips   int
	PostingsWalks int
	// WalkNs / BoundNs / BitDPNs / ExactDPNs attribute the matcher's
	// wall-clock to its stages: postings walk + candidate assembly, the
	// batched bound loop, bit-parallel distance refinement, and exact
	// alignment. Unlike the counters above these are timings, not pure
	// per-document functions.
	WalkNs    int64
	BoundNs   int64
	BitDPNs   int64
	ExactDPNs int64
	// CandHist is the log2 histogram of per-probe examined-candidate
	// counts: bucket k counts probes whose surviving set had
	// ⌈lg(n+1)⌉ = k candidates.
	CandHist [stream.CandHistBuckets]int
	// Lifecycle counters: Flushes and FlushDocs count mining passes and
	// the documents they consumed; TemplatesMined / Merged / Evicted /
	// Aged count lifecycle events. MineReusedDocs over MineClusteredDocs
	// is the incremental miner's reuse rate — the fraction of clustered
	// documents that were carried over from earlier flushes rather than
	// arriving in the pending buffer.
	Flushes           int
	FlushDocs         int
	TemplatesMined    int
	TemplatesMerged   int
	TemplatesEvicted  int
	TemplatesAged     int
	MineReusedDocs    int
	MineClusteredDocs int
}

// Stats returns the serving-path counters accumulated since creation.
func (s *StreamDetector) Stats() StreamStats {
	st := s.d.Stats()
	return StreamStats{
		Probes:        st.Probes,
		Candidates:    st.Candidates,
		Examined:      st.Examined,
		DPRuns:        st.DPRuns,
		DPPruned:      st.DPPruned,
		BitDPRuns:     st.BitDPRuns,
		BitDPPruned:   st.BitDPPruned,
		BandRuns:      st.BandRuns,
		BandRetries:   st.BandRetries,
		BitmapSkips:   st.BitmapSkips,
		PostingsWalks: st.PostingsWalks,
		WalkNs:        st.WalkNs,
		BoundNs:       st.BoundNs,
		BitDPNs:       st.BitDPNs,
		ExactDPNs:     st.ExactDPNs,
		CandHist:      st.CandHist,

		Flushes:           st.Flushes,
		FlushDocs:         st.FlushDocs,
		TemplatesMined:    st.TemplatesMined,
		TemplatesMerged:   st.TemplatesMerged,
		TemplatesEvicted:  st.TemplatesEvicted,
		TemplatesAged:     st.TemplatesAged,
		MineReusedDocs:    st.MineReusedDocs,
		MineClusteredDocs: st.MineClusteredDocs,
	}
}

// RegisterTemplate adds one template directly, bypassing mining — the
// bulk-load path for serving processes that receive template sets mined
// elsewhere. words and wild run in lockstep; words at wild positions are
// ignored (slots match any token). Returns the new template's index.
func (s *StreamDetector) RegisterTemplate(words []string, wild []bool) (int, error) {
	return s.d.Register(words, wild)
}

// Save serializes the detector state: mined templates (with lifecycle
// markers), the pending buffer (texts and ids), and the incremental
// miner's carryover window — a snapshot taken mid-buffer loses nothing.
func (s *StreamDetector) Save(w io.Writer) error { return s.d.Save(w) }

// Load restores templates saved by Save, merging after any templates the
// detector already holds; the candidate-pruning index is rebuilt over the
// loading detector's vocabulary.
func (s *StreamDetector) Load(r io.Reader) error { return s.d.Load(r) }
