// Package serve runs the streaming detector behind a concurrency-safe,
// network-ready front end. Its core is a dynamic micro-batching
// coalescer — the group-commit pattern: concurrent single-document
// requests enqueue onto one bounded channel, a single sequencer
// goroutine drains up to MaxBatch documents or a MaxWait latency budget
// (whichever comes first), runs one Detector.AddBatchTokens over the
// combined slice (which fans matching across Options.Workers), and
// distributes the per-document verdicts back to the blocked callers.
//
// The detector stays single-writer: only the sequencer goroutine ever
// touches it, so the ingest hot path takes no locks and N concurrent
// clients transparently amortize the batched fan-out that a
// mutex-per-Add arrangement leaves idle. Verdicts are byte-identical to
// feeding the same documents to sequential Add in coalesced order —
// arrival order is the enqueue order on the channel, and AddBatch is
// already gated equivalent to an Add loop — so determinism is testable
// by replaying ids in order (see serve_test.go).
package serve

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"infoshield/internal/stream"
)

// ErrClosed is returned by every Coalescer method after Close has begun:
// the queue no longer accepts work.
var ErrClosed = errors.New("serve: coalescer closed")

// Verdict is the serving-path answer for one ingested document.
type Verdict struct {
	// ID is the detector-assigned document id (dense, arrival-ordered).
	ID int `json:"id"`
	// Template is the matched template index, or -1.
	Template int `json:"template"`
	// Pending reports that the document buffers for the next mining pass;
	// its assignment may still change (look it up later by ID).
	Pending bool `json:"pending"`
}

// Options tunes the coalescer. The zero value selects the defaults; no
// setting changes verdicts, only batching behavior and latency.
type Options struct {
	// MaxBatch is the document count that flushes a growing batch
	// immediately (default 256). A single Submit larger than MaxBatch is
	// still ingested as one batch — requests are never split, so one
	// request's documents stay contiguous in arrival order.
	MaxBatch int
	// MaxWait is how long the sequencer waits to grow a non-full batch
	// after dequeuing its first request. The default (0) never waits: the
	// sequencer drains whatever is already queued and commits — natural
	// batching, where the batch size adapts to the arrival rate because
	// requests queue up while the previous batch is in flight. A positive
	// budget trades that latency for larger batches, which only pays off
	// for open-loop producers that do not block on each verdict.
	MaxWait time.Duration
	// QueueDepth bounds the ingest queue in requests (default 1024);
	// submitters block once it fills, providing backpressure.
	QueueDepth int
	// Commit, when set, is invoked by the sequencer after each batch's
	// AddBatch and before any waiter is acked — the write-ahead-log hook:
	// one call per group commit, so WAL batching (and its single fsync)
	// rides the coalescer's natural batching for free. ids and texts run
	// in lockstep and must not be retained after the call returns. A
	// returned error is counted (Counters.CommitErrs) but the batch is
	// still acked: by then the detector has committed it.
	Commit func(ids []int, texts []string) error
}

func (o Options) maxBatch() int {
	if o.MaxBatch > 0 {
		return o.MaxBatch
	}
	return 256
}

func (o Options) maxWait() time.Duration {
	if o.MaxWait < 0 {
		return 0
	}
	return o.MaxWait
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 1024
}

// request is one queue entry: an ingest request (texts + verdicts) or a
// control request (ctl + ctlDone). Control requests are executed by the
// sequencer between batches, so they see — and may mutate — a quiesced
// detector without any locking.
type request struct {
	texts    []string
	words    [][]string // token streams, parallel to texts
	verdicts chan []Verdict
	ctl      func(d *stream.Detector)
	ctlDone  chan struct{}
}

// flushReason records why a batch stopped growing.
type flushReason int

const (
	flushSize     flushReason = iota // reached MaxBatch documents
	flushDeadline                    // MaxWait expired
	flushDrain                       // queue went empty with MaxWait disabled
	flushControl                     // a control request arrived mid-coalesce
	flushClose                       // the queue closed during shutdown drain
)

// histBuckets sizes the batch-size histogram: bucket 0 counts 1-document
// batches, bucket i counts sizes in (2^(i-1), 2^i], and the last bucket
// absorbs everything larger.
const histBuckets = 16

// Counters are the serve-side statistics the sequencer accumulates —
// the coalescer analogue of the detector's matcher counters.
type Counters struct {
	// Docs counts documents ingested through the coalescer.
	Docs int64 `json:"docs"`
	// Batches counts AddBatch flushes; the per-reason counters below
	// partition it.
	Batches           int64 `json:"batches"`
	BatchesBySize     int64 `json:"batches_by_size"`
	BatchesByDeadline int64 `json:"batches_by_deadline"`
	BatchesByDrain    int64 `json:"batches_by_drain"`
	BatchesByControl  int64 `json:"batches_by_control"`
	BatchesByClose    int64 `json:"batches_by_close"`
	// MaxBatchDocs is the largest single flush observed.
	MaxBatchDocs int `json:"max_batch_docs"`
	// BatchSizeHist is a log2 histogram of flush sizes: index 0 counts
	// single-document batches, index i sizes in (2^(i-1), 2^i].
	BatchSizeHist [histBuckets]int64 `json:"batch_size_hist"`
	// QueueHighWater is the deepest the request queue has been.
	QueueHighWater int `json:"queue_high_water"`
	// CoalesceWaitNs is the total time batches spent growing (first
	// dequeue to AddBatch start); divided by Batches it is the mean
	// latency the group-commit adds.
	CoalesceWaitNs int64 `json:"coalesce_wait_ns"`
	// CommitErrs counts Options.Commit (write-ahead log) failures; any
	// nonzero value means durability is degraded and the log needs
	// operator attention.
	CommitErrs int64 `json:"commit_errs"`
}

// MatcherStats mirrors stream.Stats with JSON tags for the HTTP API,
// plus two derived health signals: DPSkipRate (DPPruned / Candidates, the
// fraction of template comparisons resolved without the wildcard DP) and
// the log2 candidates-per-probe histogram. Operators watch these because
// index pruning degrades — skip rate falls, histogram mass drifts toward
// high buckets — before mean latency shows it.
type MatcherStats struct {
	Probes      int `json:"probes"`
	Candidates  int `json:"candidates"`
	Examined    int `json:"examined"`
	DPRuns      int `json:"dp_runs"`
	DPPruned    int `json:"dp_pruned"`
	BitDPRuns   int `json:"bitdp_runs"`
	BitDPPruned int `json:"bitdp_pruned"`
	// BandRuns counts exact alignments routed through the banded DP;
	// BandRetries counts band widenings (zero in healthy operation — the
	// band is seeded with the exact bit-parallel distance).
	BandRuns    int `json:"band_runs"`
	BandRetries int `json:"band_retries"`
	// BitmapSkips counts probes the token → bucket-set bitmap resolved
	// without touching a postings chunk; PostingsWalks counts the rest.
	// They partition probes on the pruned path.
	BitmapSkips   int `json:"bitmap_skips"`
	PostingsWalks int `json:"postings_walks"`
	// WalkNs / BoundNs / BitDPNs / ExactDPNs break the matcher's
	// wall-clock down by stage (postings walk + candidate assembly,
	// batched bound loop, bit-parallel refinement, exact alignment), so
	// the per-probe constant cost is observable in production.
	WalkNs    int64 `json:"walk_ns"`
	BoundNs   int64 `json:"bound_ns"`
	BitDPNs   int64 `json:"bitdp_ns"`
	ExactDPNs int64 `json:"exactdp_ns"`
	// DPSkipRate is DPPruned / Candidates, 0 before any probe.
	DPSkipRate float64 `json:"dp_skip_rate"`
	// CandPerProbeHist[k] counts probes whose surviving candidate set had
	// ⌈lg(n+1)⌉ = k members (bucket 0 is exactly zero candidates).
	CandPerProbeHist []int `json:"cand_per_probe_hist_log2"`
}

// LifecycleStats reports template mining and lifecycle activity: how
// many templates each mechanism retired, how many are live, and how much
// re-clustering the incremental miner avoided. With the lifecycle
// disabled everything except Live / Mined / Flushes / FlushDocs is zero.
type LifecycleStats struct {
	// Live is the live template count (Stats.Templates minus lifecycle
	// tombstones).
	Live int `json:"live"`
	// Mined counts templates accepted by mining passes; Merged / Evicted
	// / AgedOut count retirements by cause.
	Mined   int `json:"mined"`
	Merged  int `json:"merged"`
	Evicted int `json:"evicted"`
	AgedOut int `json:"aged_out"`
	// Flushes counts mining passes, FlushDocs the documents they
	// consumed.
	Flushes   int `json:"flushes"`
	FlushDocs int `json:"flush_docs"`
	// MineReused / MineClustered count documents the incremental miner
	// re-clustered from its retained window vs all documents it handed
	// to clustering; ReuseRate is their ratio (0 before any incremental
	// flush).
	MineReused    int     `json:"mine_reused"`
	MineClustered int     `json:"mine_clustered"`
	ReuseRate     float64 `json:"reuse_rate"`
}

// Stats is the full serving snapshot: detector state plus coalescer
// counters, taken atomically between batches. Templates counts live
// templates (lifecycle tombstones excluded).
type Stats struct {
	Templates   int            `json:"templates"`
	PendingDocs int            `json:"pending_docs"`
	Matcher     MatcherStats   `json:"matcher"`
	Lifecycle   LifecycleStats `json:"lifecycle"`
	Serve       Counters       `json:"serve"`
}

// Coalescer is the group-commit ingest front end over one detector.
type Coalescer struct {
	det *stream.Detector
	opt Options
	ch  chan request

	// mu is the accept gate, not a hot-path detector lock: Submit and do
	// hold it shared around the channel send so Close (exclusive) can
	// mark the queue closed and close the channel without racing a send.
	mu     sync.RWMutex
	closed bool
	done   chan struct{} // closed when the sequencer exits

	queueHW atomic.Int64 // submit-side; folded into ctr on Stats reads
	ctr     Counters     // sequencer-owned

	// batch-assembly scratch, sequencer-owned and reused across flushes.
	reqbuf  []request
	textbuf []string
	wordbuf [][]string
}

// NewCoalescer wraps det and starts the sequencer goroutine. The caller
// hands over ownership: after this, det must only be touched through the
// coalescer until Close returns.
func NewCoalescer(det *stream.Detector, opt Options) *Coalescer {
	c := &Coalescer{
		det:  det,
		opt:  opt,
		ch:   make(chan request, opt.queueDepth()),
		done: make(chan struct{}),
	}
	go c.run()
	return c
}

// Submit ingests texts and blocks until their batch commits, returning
// one verdict per text in order. words[i] must be the package
// tokenizer's stream for texts[i]: the sharder tokenizes once to compute
// each document's routing key and hands the streams down here, so the
// detector's encode step never re-tokenizes. All of a call's documents
// are assigned contiguous ids: requests coalesce whole, they are never
// split across batches. Returns ErrClosed once Close has begun.
func (c *Coalescer) Submit(texts []string, words [][]string) ([]Verdict, error) {
	if len(texts) == 0 {
		return []Verdict{}, nil
	}
	done := make(chan []Verdict, 1)
	if err := c.enqueue(request{texts: texts, words: words, verdicts: done}); err != nil {
		return nil, err
	}
	return <-done, nil
}

// do runs fn on the sequencer goroutine between batches and blocks until
// it returns. fn sees a quiesced detector: no batch is in flight and
// every earlier-enqueued request has committed.
func (c *Coalescer) do(fn func(d *stream.Detector)) error {
	done := make(chan struct{})
	if err := c.enqueue(request{ctl: fn, ctlDone: done}); err != nil {
		return err
	}
	<-done
	return nil
}

// enqueue sends one request under the accept gate. While any reader
// holds the gate the sequencer is guaranteed alive and draining, so a
// send blocked on a full queue always completes.
func (c *Coalescer) enqueue(req request) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClosed
	}
	c.ch <- req
	if depth := int64(len(c.ch)); depth > c.queueHW.Load() {
		// Racy max is fine: the high-water mark is a diagnostic, and any
		// lost update is bounded by a concurrent larger observation.
		c.queueHW.Store(depth)
	}
	return nil
}

// Assignment returns the current verdict for a document id.
func (c *Coalescer) Assignment(id int) (stream.Assignment, error) {
	var a stream.Assignment
	err := c.do(func(d *stream.Detector) { a = d.Assignment(id) })
	return a, err
}

// Templates returns the mined templates rendered for reporting. The
// slice is indexed by template id and includes retired slots (Dead set)
// so positions stay stable across evictions and merges; listings that
// only want live templates filter on Dead.
func (c *Coalescer) Templates() ([]stream.TemplateInfo, error) {
	var out []stream.TemplateInfo
	err := c.do(func(d *stream.Detector) {
		out = make([]stream.TemplateInfo, d.NumTemplates())
		for i := range out {
			out[i] = d.TemplateInfo(i)
		}
	})
	return out, err
}

// Stats snapshots detector and coalescer counters between batches.
func (c *Coalescer) Stats() (Stats, error) {
	var st Stats
	err := c.do(func(d *stream.Detector) {
		ds := d.Stats()
		m := MatcherStats{
			Probes:           ds.Probes,
			Candidates:       ds.Candidates,
			Examined:         ds.Examined,
			DPRuns:           ds.DPRuns,
			DPPruned:         ds.DPPruned,
			BitDPRuns:        ds.BitDPRuns,
			BitDPPruned:      ds.BitDPPruned,
			BandRuns:         ds.BandRuns,
			BandRetries:      ds.BandRetries,
			BitmapSkips:      ds.BitmapSkips,
			PostingsWalks:    ds.PostingsWalks,
			WalkNs:           ds.WalkNs,
			BoundNs:          ds.BoundNs,
			BitDPNs:          ds.BitDPNs,
			ExactDPNs:        ds.ExactDPNs,
			CandPerProbeHist: append([]int(nil), ds.CandHist[:]...),
		}
		if ds.Candidates > 0 {
			m.DPSkipRate = float64(ds.DPPruned) / float64(ds.Candidates)
		}
		lc := LifecycleStats{
			Live:          d.NumLive(),
			Mined:         ds.TemplatesMined,
			Merged:        ds.TemplatesMerged,
			Evicted:       ds.TemplatesEvicted,
			AgedOut:       ds.TemplatesAged,
			Flushes:       ds.Flushes,
			FlushDocs:     ds.FlushDocs,
			MineReused:    ds.MineReusedDocs,
			MineClustered: ds.MineClusteredDocs,
		}
		if ds.MineClusteredDocs > 0 {
			lc.ReuseRate = float64(ds.MineReusedDocs) / float64(ds.MineClusteredDocs)
		}
		st = Stats{
			Templates:   d.NumLive(),
			PendingDocs: d.Pending(),
			Matcher:     m,
			Lifecycle:   lc,
			Serve:       c.ctr,
		}
		st.Serve.QueueHighWater = int(c.queueHW.Load())
	})
	return st, err
}

// Close stops accepting work, drains every already-accepted request —
// all of them receive verdicts — and waits for the sequencer to exit.
// Safe to call more than once.
func (c *Coalescer) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.ch)
	}
	c.mu.Unlock()
	<-c.done
	return nil
}

// run is the sequencer: the only goroutine that touches the detector.
// It blocks for a first request, coalesces ingests into a batch, commits
// the batch, and executes control requests between batches, preserving
// queue order exactly.
func (c *Coalescer) run() {
	defer close(c.done)
	for {
		req, ok := <-c.ch
		if !ok {
			return
		}
		for {
			if req.ctl != nil {
				req.ctl(c.det)
				close(req.ctlDone)
				break
			}
			pending, hasPending, chClosed := c.coalesce(req)
			if chClosed {
				return
			}
			if !hasPending {
				break
			}
			req = pending
		}
	}
}

// coalesce grows a batch from first until MaxBatch documents, the
// MaxWait deadline, an empty queue (MaxWait disabled), a control
// request, or queue close — then commits it. A control request dequeued
// mid-coalesce is returned to run so it executes after the batch it
// interrupted, keeping queue order.
func (c *Coalescer) coalesce(first request) (pending request, hasPending, chClosed bool) {
	reqs := append(c.reqbuf[:0], first)
	docs := len(first.texts)
	start := time.Now()
	reason := flushSize
	var timer *time.Timer

collect:
	for docs < c.opt.maxBatch() {
		var req request
		var ok bool
		if c.opt.maxWait() == 0 {
			select {
			case req, ok = <-c.ch:
			default:
				reason = flushDrain
				break collect
			}
		} else {
			if timer == nil {
				timer = time.NewTimer(c.opt.maxWait())
				defer timer.Stop()
			}
			select {
			case req, ok = <-c.ch:
			case <-timer.C:
				reason = flushDeadline
				break collect
			}
		}
		if !ok {
			reason = flushClose
			chClosed = true
			break
		}
		if req.ctl != nil {
			reason = flushControl
			pending, hasPending = req, true
			break
		}
		reqs = append(reqs, req)
		docs += len(req.texts)
	}

	c.commit(reqs, docs, start, reason)
	c.reqbuf = reqs[:0]
	return pending, hasPending, chClosed
}

// commit runs one AddBatchTokens over the coalesced documents and
// distributes the per-document verdicts back to the waiting submitters,
// whose verdict channels are buffered so the sequencer never blocks on a
// slow reader.
func (c *Coalescer) commit(reqs []request, docs int, start time.Time, reason flushReason) {
	texts := c.textbuf[:0]
	words := c.wordbuf[:0]
	for _, r := range reqs {
		texts = append(texts, r.texts...)
		words = append(words, r.words...)
	}
	c.ctr.CoalesceWaitNs += time.Since(start).Nanoseconds()
	c.ctr.Docs += int64(docs)
	c.ctr.Batches++
	switch reason {
	case flushSize:
		c.ctr.BatchesBySize++
	case flushDeadline:
		c.ctr.BatchesByDeadline++
	case flushDrain:
		c.ctr.BatchesByDrain++
	case flushControl:
		c.ctr.BatchesByControl++
	case flushClose:
		c.ctr.BatchesByClose++
	}
	if docs > c.ctr.MaxBatchDocs {
		c.ctr.MaxBatchDocs = docs
	}
	bucket := bits.Len(uint(docs - 1))
	if bucket >= histBuckets {
		bucket = histBuckets - 1
	}
	c.ctr.BatchSizeHist[bucket]++

	ids := c.det.AddBatchTokens(texts, words)
	if c.opt.Commit != nil {
		// Write-ahead of the ack: the log record lands (and syncs) before
		// any waiter learns its verdict, so an acked document survives a
		// crash. One call per group commit — WAL batching for free.
		if err := c.opt.Commit(ids, texts); err != nil {
			c.ctr.CommitErrs++
		}
	}
	k := 0
	for _, r := range reqs {
		vs := make([]Verdict, len(r.texts))
		for j := range r.texts {
			a := c.det.Assignment(ids[k])
			vs[j] = Verdict{ID: ids[k], Template: a.Template, Pending: a.Pending}
			k++
		}
		r.verdicts <- vs
	}
	c.textbuf = texts[:0]
	c.wordbuf = words[:0]
}
