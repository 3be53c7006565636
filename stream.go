package infoshield

import (
	"io"

	"infoshield/internal/stream"
)

// StreamDetector ingests documents incrementally: each document either
// attaches to an already-mined template immediately (the same MDL
// criterion as the batch pipeline, with slots matching as wildcards) or
// buffers until BatchSize documents accumulate, at which point a mining
// pass (the pipeline's coarse and fine stages) mines new templates from
// the buffer.
//
// This is the deployment shape of the paper's application: ads and tweets
// arrive continuously, and known campaigns should be recognized without
// re-clustering the world.
type StreamDetector struct {
	d *stream.Detector
}

// NewStreamDetector creates an empty incremental detector. batchSize <= 0
// selects the default (512). Mining passes price description lengths at
// the detector's vocabulary size.
func NewStreamDetector(cfg Config, batchSize int) *StreamDetector {
	d := stream.New(cfg.toCore())
	if batchSize > 0 {
		d.BatchSize = batchSize
	}
	return &StreamDetector{d: d}
}

// StreamLifecycle bounds a long-running detector: MaxTemplates caps
// the live template count (least-recently-matched evicted first), TTL
// ages out templates no document matched within the last TTL ingested,
// Merge folds a freshly mined template into an existing near-duplicate
// when MDL favors one template, and Incremental carries document
// frequencies and recent unmatched documents across flushes. With any
// of the first three set, the detector is periodically compacted to its
// live state: retired templates' payloads and every word live state no
// longer uses are dropped. The zero value keeps every mined template
// and word forever and mines each pending buffer alone. Every setting
// mines through one pass.
type StreamLifecycle = stream.Lifecycle

// SetLifecycle configures template aging, eviction, merging, and
// incremental mining. Call before ingesting documents.
func (s *StreamDetector) SetLifecycle(lc StreamLifecycle) { s.d.Lifecycle = lc }

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

// StreamTemplate is a reporting view of one mined template: Pattern
// renders constants verbatim and slots as "*", Slots counts the slot
// positions, DocCount is the running number of documents it encoded, and
// Dead marks a retired slot (evicted, aged out, or merged away) whose
// index stays stable.
type StreamTemplate = stream.TemplateInfo

// Templates renders the mined templates for reporting, in mining order
// (indices match the values returned by Template).
func (s *StreamDetector) Templates() []StreamTemplate {
	out := make([]StreamTemplate, s.d.NumTemplates())
	for i := range out {
		out[i] = s.d.TemplateInfo(i)
	}
	return out
}

// Pending returns the number of buffered documents.
func (s *StreamDetector) Pending() int { return s.d.Pending() }

// StreamStats reports the cumulative work of the serving path — the
// streaming analogue of Result.Timings(). Its matcher counters
// (StreamStats.MatchStats) count probes, candidates and the wildcard
// DPs the tiered index and its admissible lower bounds pruned: DPPruned
// over Candidates is the DP-skip rate. Its mining counters
// (StreamStats.MineStats) count flushes, mined templates and lifecycle
// retirements; MineReused over MineClustered is the incremental miner's
// reuse rate. The field names are the /v1/stats JSON keys' Go names.
type StreamStats = stream.Stats

// Stats returns the serving-path counters accumulated since creation.
func (s *StreamDetector) Stats() StreamStats { return s.d.Stats() }

// RegisterTemplate adds one template directly, bypassing mining — the
// bulk-load path for serving processes that receive template sets mined
// elsewhere. words and wild run in lockstep; words at wild positions are
// ignored (slots match any token). Returns the new template's index.
func (s *StreamDetector) RegisterTemplate(words []string, wild []bool) (int, error) {
	return s.d.Register(words, wild)
}

// Save serializes the detector state: mined templates (with lifecycle
// markers), the pending buffer (texts and ids), the incremental miner's
// carryover window, and every document's verdict — a snapshot taken
// mid-buffer loses nothing, and Template answers the same after Load.
// The output is state version 4: a JSON document whose bulk is base64
// varint blobs — a word table listing each word once, templates and the
// carryover window as word-table references, and the verdict column —
// about 77 bytes per template at 100k templates. The bytes do not depend
// on the detector's vocabulary ids.
func (s *StreamDetector) Save(w io.Writer) error { return s.d.Save(w) }

// Load restores state saved by Save into an empty detector (no
// templates, no documents): a state numbers its templates and documents
// by position, so it is never merged into another detector's. The
// candidate-pruning index is rebuilt over the loading detector's
// vocabulary. Malformed state — including any version other than 4 —
// and a non-empty detector are rejected before anything changes.
func (s *StreamDetector) Load(r io.Reader) error { return s.d.Load(r) }
