// Package serve runs the streaming detector behind a concurrency-safe,
// network-ready front end. Its core is a leader-follower group committer
// (the write path of LevelDB's DBImpl::Write): concurrent submitters
// append their requests to one queue, and the submitter that finds the
// queue empty becomes the leader. The leader takes the commit lock, then
// up to MaxBatch queued documents, runs one Detector.AddBatchTokens over
// them (which fans matching across the detector's workers), hands every
// follower its verdicts, and promotes the next queued request to lead.
// The Coalescer has no goroutine of its own: whichever submitter leads
// does the work.
//
// The commit lock keeps the detector single-writer: group commits,
// flushes and snapshot steps hold its write side, reads (assignments,
// templates, stats) its read side. Verdicts are byte-identical to
// feeding the same documents to sequential Add in queue order — ids are
// assigned in the order requests joined the queue, and AddBatch is
// already gated equivalent to an Add loop — so determinism is testable
// by replaying ids in order (see serve_test.go).
package serve

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"infoshield/internal/stream"
)

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

// Options tunes the coalescer. The zero value selects the default; no
// setting changes verdicts, only batching behavior and latency.
type Options struct {
	// MaxBatch caps the documents one leader commits for itself and its
	// followers (default 256). A single Submit larger than MaxBatch is
	// still ingested as one batch — requests are never split, so one
	// request's documents stay contiguous in arrival order.
	MaxBatch int
}

func (o Options) maxBatch() int {
	if o.MaxBatch > 0 {
		return o.MaxBatch
	}
	return 256
}

// request is one queued Submit. done is closed exactly once: by the
// leader that committed the request, after it filled in verdicts, or by
// the leader that promoted it to lead, with verdicts still nil.
type request struct {
	texts    []string
	words    [][]string // token streams, parallel to texts
	verdicts []Verdict
	done     chan struct{}
}

// histBuckets sizes the batch-size histogram: bucket 0 counts 1-document
// batches, bucket i counts sizes in (2^(i-1), 2^i], and the last bucket
// absorbs everything larger.
const histBuckets = 16

// Counters are the serve-side statistics the group commits accumulate —
// the coalescer analogue of the detector's matcher counters.
type Counters struct {
	// Docs counts documents ingested through the coalescer.
	Docs int64 `json:"docs"`
	// Batches counts group commits. BatchesBySize counts those that
	// reached MaxBatch, BatchesByDrain those that took the whole queue
	// short of it; the two partition Batches.
	Batches        int64 `json:"batches"`
	BatchesBySize  int64 `json:"batches_by_size"`
	BatchesByDrain int64 `json:"batches_by_drain"`
	// MaxBatchDocs is the largest single group commit observed.
	MaxBatchDocs int `json:"max_batch_docs"`
	// BatchSizeHist is a log2 histogram of commit sizes: index 0 counts
	// single-document batches, index i sizes in (2^(i-1), 2^i].
	BatchSizeHist [histBuckets]int64 `json:"batch_size_hist"`
	// QueueHighWater is the deepest the submitter queue has been.
	QueueHighWater int `json:"queue_high_water"`
	// CoalesceWaitNs is the total time leaders spent assembling batches,
	// from taking the commit lock to starting the commit; divided by
	// Batches it is the mean latency batch assembly adds.
	CoalesceWaitNs int64 `json:"coalesce_wait_ns"`
	// CommitErrs counts write-ahead-log failures; any nonzero value means
	// durability is degraded and the log needs operator attention.
	CommitErrs int64 `json:"commit_errs"`
}

// MatcherStats is the detector's matcher counters (stream.MatchStats,
// whose JSON tags name the fields) plus their derived health signal.
type MatcherStats struct {
	stream.MatchStats
	// DPSkipRate is DPPruned / Candidates, the fraction of template
	// comparisons resolved without the wildcard DP; 0 before any probe.
	DPSkipRate float64 `json:"dp_skip_rate"`
}

// LifecycleStats reports template mining and lifecycle activity: the
// live template count, the detector's mining counters (stream.MineStats)
// and how much re-clustering the incremental miner avoided.
type LifecycleStats struct {
	// Live is the live template count (Stats.Templates minus lifecycle
	// tombstones).
	Live int `json:"live"`
	stream.MineStats
	// ReuseRate is MineReused / MineClustered, 0 before any incremental
	// flush.
	ReuseRate float64 `json:"reuse_rate"`
}

// Stats is the full serving snapshot: detector state plus coalescer
// counters, taken atomically between group commits. Templates counts
// live templates (lifecycle tombstones excluded).
type Stats struct {
	Templates   int            `json:"templates"`
	PendingDocs int            `json:"pending_docs"`
	Matcher     MatcherStats   `json:"matcher"`
	Lifecycle   LifecycleStats `json:"lifecycle"`
	Serve       Counters       `json:"serve"`
}

// deriveRates fills st's ratios from its counters. Coalescer.Stats and
// the sharded rollup share it, so a total's rates are re-derived from
// the summed counters, never averaged.
func (st *Stats) deriveRates() {
	st.Matcher.DPSkipRate = ratio(st.Matcher.DPPruned, st.Matcher.Candidates)
	st.Lifecycle.ReuseRate = ratio(st.Lifecycle.MineReused, st.Lifecycle.MineClustered)
}

// ratio is num / den, or 0 when den is 0.
func ratio[T int | int64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Coalescer is the group-commit ingest front end over one detector.
type Coalescer struct {
	det      *stream.Detector
	maxBatch int
	// walHook, when set, runs after each group commit's AddBatch and
	// before any submitter sees its verdicts: the write-ahead-log append,
	// so a batch's records share one fsync. A returned error is counted
	// (Counters.CommitErrs) but the batch is still acked: by then the
	// detector has committed it.
	walHook func(ids []int, texts []string) error

	// commit serializes detector access: group commits, flushes and
	// snapshot steps hold it exclusively, reads hold it shared. ctr and
	// the batch scratch are guarded by its write side. A panic under the
	// write side ends the process (crashOnPanic).
	commit  sync.RWMutex
	ctr     Counters
	reqbuf  []*request
	textbuf []string
	wordbuf [][]string

	// mu guards the submitter queue. The leader's request stays at the
	// head until its commit finishes, so a submitter that finds the
	// queue non-empty knows a leader exists and waits to be served.
	mu      sync.Mutex
	queue   []*request
	queueHW int
}

// NewCoalescer wraps det. The caller hands over ownership: after this,
// det must only be touched through the coalescer or under its commit
// lock.
func NewCoalescer(det *stream.Detector, opt Options) *Coalescer {
	return &Coalescer{det: det, maxBatch: opt.maxBatch()}
}

// Submit ingests texts and blocks until their batch commits, returning
// one verdict per text in order. words[i] must be the package
// tokenizer's stream for texts[i]: the sharder tokenizes once to compute
// each document's routing key and hands the streams down here, so the
// detector's encode step never re-tokenizes. All of a call's documents
// are assigned contiguous ids: requests are never split across batches.
func (c *Coalescer) Submit(texts []string, words [][]string) []Verdict {
	if len(texts) == 0 {
		return []Verdict{}
	}
	r := &request{texts: texts, words: words, done: make(chan struct{})}
	c.mu.Lock()
	c.queue = append(c.queue, r)
	lead := len(c.queue) == 1
	c.queueHW = max(c.queueHW, len(c.queue))
	c.mu.Unlock()
	if !lead {
		<-r.done
		if r.verdicts != nil {
			return r.verdicts
		}
	}
	c.lead()
	return r.verdicts
}

// lead runs one group commit on behalf of the request at the queue
// head. It takes the batch only after it holds the commit lock, so
// requests keep gathering while a flush, a snapshot step or a reader
// holds the lock.
func (c *Coalescer) lead() {
	c.commit.Lock()
	defer crashOnPanic()
	start := time.Now()

	reqs, docs := c.reqbuf[:0], 0
	c.mu.Lock()
	for _, r := range c.queue {
		if docs >= c.maxBatch {
			break
		}
		reqs = append(reqs, r)
		docs += len(r.texts)
	}
	c.mu.Unlock()

	texts, words := c.textbuf[:0], c.wordbuf[:0]
	for _, r := range reqs {
		texts = append(texts, r.texts...)
		words = append(words, r.words...)
	}
	c.count(start, docs)
	ids := c.det.AddBatchTokens(texts, words)
	// Write-ahead of the ack: the log record lands (and syncs) before any
	// submitter learns its verdict, so an acked document survives a crash.
	if c.walHook != nil && c.walHook(ids, texts) != nil {
		c.ctr.CommitErrs++
	}
	k := 0
	for _, r := range reqs {
		vs := make([]Verdict, len(r.texts))
		for j := range vs {
			a := c.det.Assignment(ids[k])
			vs[j] = Verdict{ID: ids[k], Template: a.Template, Pending: a.Pending}
			k++
		}
		r.verdicts = vs
	}

	// reqs[0] is the leader's own request: nobody waits on its done. The
	// followers get their verdicts, and the new head, if any, is
	// promoted to lead. Only this leader may wake the new head, so the
	// wake can run after mu drops.
	wake := reqs[1:]
	c.mu.Lock()
	rest := copy(c.queue, c.queue[len(reqs):])
	clear(c.queue[rest:])
	c.queue = c.queue[:rest]
	if rest > 0 {
		wake = append(wake, c.queue[0])
	}
	c.mu.Unlock()
	for _, r := range wake {
		close(r.done)
	}
	// The scratch belongs to the next leader as soon as the lock drops.
	c.reqbuf, c.textbuf, c.wordbuf = reqs[:0], texts[:0], words[:0]
	c.commit.Unlock()
	// Unlock only readies the goroutines this commit released: readers
	// blocked on the read side, served followers, the promoted leader.
	// Yield so they run now, not after this goroutine has written its own
	// reply and parked; without it every read that met a commit answered
	// after the commit's reply, which raised mine-drift read latency.
	runtime.Gosched()
}

// exclusive runs fn, a detector mutation, under the commit lock's write
// side, ending the process if fn panics (see crashOnPanic).
func (c *Coalescer) exclusive(fn func()) {
	c.commit.Lock()
	defer crashOnPanic()
	fn()
	c.commit.Unlock()
}

// crashOnPanic, deferred right after a write-side commit.Lock, turns a
// panic in the mutation that follows into a process exit, with the lock
// still held. The mutation may have left the detector half-applied, so
// no read, snapshot or later commit may run past it; a restart rebuilds
// a consistent state from the last snapshot and the write-ahead log.
// Re-panicking is not enough: the panicking goroutine is often a net/http
// handler, and net/http recovers handler panics and keeps serving.
func crashOnPanic() {
	if p := recover(); p != nil {
		fmt.Fprintf(os.Stderr, "serve: panic under the commit lock: %v\n\n%s", p, debug.Stack())
		os.Exit(2)
	}
}

// count records one group commit of docs documents whose batch assembly
// began at start.
func (c *Coalescer) count(start time.Time, docs int) {
	c.ctr.CoalesceWaitNs += time.Since(start).Nanoseconds()
	c.ctr.Docs += int64(docs)
	c.ctr.Batches++
	if docs >= c.maxBatch {
		c.ctr.BatchesBySize++
	} else {
		c.ctr.BatchesByDrain++
	}
	c.ctr.MaxBatchDocs = max(c.ctr.MaxBatchDocs, docs)
	c.ctr.BatchSizeHist[min(bits.Len(uint(docs-1)), histBuckets-1)]++
}

// Assignment returns the current verdict for a document id; ok is false
// for an id the detector has not issued.
func (c *Coalescer) Assignment(id int) (a stream.Assignment, ok bool) {
	c.commit.RLock()
	defer c.commit.RUnlock()
	if id < 0 || id >= c.det.NextID() {
		return stream.Assignment{}, false
	}
	return c.det.Assignment(id), true
}

// Templates returns the mined templates rendered for reporting. The
// slice is indexed by template id and includes retired slots (Dead set)
// so positions stay stable across evictions and merges; listings that
// only want live templates filter on Dead.
func (c *Coalescer) Templates() []stream.TemplateInfo {
	c.commit.RLock()
	defer c.commit.RUnlock()
	out := make([]stream.TemplateInfo, c.det.NumTemplates())
	for i := range out {
		out[i] = c.det.TemplateInfo(i)
	}
	return out
}

// Stats snapshots detector and coalescer counters between group commits.
func (c *Coalescer) Stats() Stats {
	c.commit.RLock()
	defer c.commit.RUnlock()
	d, ds := c.det, c.det.Stats()
	st := Stats{
		Templates:   d.NumLive(),
		PendingDocs: d.Pending(),
		Matcher:     MatcherStats{MatchStats: ds.MatchStats},
		Lifecycle:   LifecycleStats{Live: d.NumLive(), MineStats: ds.MineStats},
		Serve:       c.ctr,
	}
	st.deriveRates()
	c.mu.Lock()
	st.Serve.QueueHighWater = c.queueHW
	c.mu.Unlock()
	return st
}
