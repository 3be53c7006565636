// Package serve runs the streaming detector behind a concurrency-safe,
// network-ready front end. Sharded routes each document to one shard: a
// serving column of detector, commit lock, group-commit queue, counters
// and optional write-ahead log. A shard's write path is a
// leader-follower group committer (the write path of LevelDB's
// DBImpl::Write): the submitter that finds the queue empty leads. It
// takes the commit lock, then up to batchCap queued documents, runs one
// Detector.AddBatchTokens over them, appends their WAL records, hands
// every follower its verdicts, and promotes the next queued request to
// lead. A shard has no goroutine of its own.
//
// Group commits, flushes and snapshot steps hold the commit lock's write
// side, reads its read side. Verdicts are byte-identical to feeding the
// same documents to sequential Add in queue order — ids are assigned in
// the order requests joined the queue, and AddBatch is already gated
// equivalent to an Add loop — so determinism is testable by replaying
// ids in order (see serve_test.go).
package serve

import (
	"bytes"
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

// Counters are the serve-side statistics a shard's group commits
// accumulate — the serving analogue of the detector's matcher counters.
type Counters struct {
	// Docs counts documents ingested through group commits.
	Docs int64 `json:"docs"`
	// Batches counts group commits. BatchesBySize counts those that
	// reached the batch cap, BatchesByDrain those that took the whole queue
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
	// CommitErrs counts write-ahead-log failures, of group commits and of
	// flush markers alike; any nonzero value means durability is degraded
	// and the log needs operator attention.
	CommitErrs int64 `json:"commit_errs"`
	// SnapshotLockNs is the total time snapshot steps (flush + save) held
	// the commit lock, over Snapshots steps. Every write and read on the
	// shard waits out that hold.
	SnapshotLockNs int64 `json:"snapshot_lock_ns"`
	Snapshots      int64 `json:"snapshots"`
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
	// VocabWords is the vocabulary's size, the V every cost is priced
	// against; a bounded lifecycle keeps it near the live word count.
	VocabWords int `json:"vocab_words"`
	stream.MineStats
	// ReuseRate is MineReused / MineClustered, 0 before any incremental
	// flush.
	ReuseRate float64 `json:"reuse_rate"`
}

// Stats is the full serving snapshot: detector state plus group-commit
// counters, taken atomically between group commits. Templates counts
// live templates (lifecycle tombstones excluded).
type Stats struct {
	Templates   int            `json:"templates"`
	PendingDocs int            `json:"pending_docs"`
	Matcher     MatcherStats   `json:"matcher"`
	Lifecycle   LifecycleStats `json:"lifecycle"`
	Serve       Counters       `json:"serve"`
}

// deriveRates fills st's ratios from its counters. A shard's stats and
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

// shard is one serving column: a detector, the commit lock that keeps it
// single-writer, the group-commit queue that feeds it, its counters and
// its write-ahead log.
type shard struct {
	det *stream.Detector
	// maxBatch is batchCap; tests lower it to force small commits.
	maxBatch int
	// wal (nil when off) is appended by each group commit before any
	// submitter sees its verdicts. A failed append is counted
	// (Counters.CommitErrs) but the batch is still acked: by then the
	// detector has committed it.
	wal *wal

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

// batchCap caps the documents one group commit takes from the queue. A
// larger request is still one batch, never split. The cap changes
// batching and latency, never verdicts.
const batchCap = 256

// newShard wraps det with no WAL. The caller hands over ownership: after
// this, det must only be touched through the shard or under its commit
// lock.
func newShard(det *stream.Detector) *shard {
	return &shard{det: det, maxBatch: batchCap}
}

// submit ingests texts and blocks until their batch commits, returning
// one verdict per text in order. words[i] must be the package
// tokenizer's stream for texts[i]: the sharder tokenizes once to compute
// each document's routing key and hands the streams down here, so the
// detector's encode step never re-tokenizes. All of a call's documents
// are assigned contiguous ids: requests are never split across batches.
func (sh *shard) submit(texts []string, words [][]string) []Verdict {
	if len(texts) == 0 {
		return []Verdict{}
	}
	r := &request{texts: texts, words: words, done: make(chan struct{})}
	sh.mu.Lock()
	sh.queue = append(sh.queue, r)
	lead := len(sh.queue) == 1
	sh.queueHW = max(sh.queueHW, len(sh.queue))
	sh.mu.Unlock()
	if !lead {
		<-r.done
		if r.verdicts != nil {
			return r.verdicts
		}
	}
	sh.lead()
	return r.verdicts
}

// lead runs one group commit on behalf of the request at the queue
// head. It takes the batch only after it holds the commit lock, so
// requests keep gathering while a flush, a snapshot step or a reader
// holds the lock.
func (sh *shard) lead() {
	sh.commit.Lock()
	defer crashOnPanic()
	start := time.Now()

	reqs, docs := sh.reqbuf[:0], 0
	sh.mu.Lock()
	for _, r := range sh.queue {
		if docs >= sh.maxBatch {
			break
		}
		reqs = append(reqs, r)
		docs += len(r.texts)
	}
	sh.mu.Unlock()

	texts, words := sh.textbuf[:0], sh.wordbuf[:0]
	for _, r := range reqs {
		texts = append(texts, r.texts...)
		words = append(words, r.words...)
	}
	sh.count(start, docs)
	ids := sh.det.AddBatchTokens(texts, words)
	// Write-ahead of the ack: the log record lands (and syncs) before any
	// submitter learns its verdict, so an acked document survives a crash.
	if sh.wal != nil && sh.wal.append(ids, texts) != nil {
		sh.ctr.CommitErrs++
	}
	k := 0
	for _, r := range reqs {
		vs := make([]Verdict, len(r.texts))
		for j := range vs {
			a := sh.det.Assignment(ids[k])
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
	sh.mu.Lock()
	rest := copy(sh.queue, sh.queue[len(reqs):])
	clear(sh.queue[rest:])
	sh.queue = sh.queue[:rest]
	if rest > 0 {
		wake = append(wake, sh.queue[0])
	}
	sh.mu.Unlock()
	for _, r := range wake {
		close(r.done)
	}
	// The scratch belongs to the next leader as soon as the lock drops.
	sh.reqbuf, sh.textbuf, sh.wordbuf = reqs[:0], texts[:0], words[:0]
	sh.commit.Unlock()
	// Unlock only readies the goroutines this commit released: readers
	// blocked on the read side, served followers, the promoted leader.
	// Yield so they run now, not after this goroutine has written its own
	// reply and parked; without it every read that met a commit answered
	// after the commit's reply, which raised mine-drift read latency.
	runtime.Gosched()
}

// flush runs a mining pass under the commit lock.
func (sh *shard) flush() {
	sh.commit.Lock()
	defer crashOnPanic()
	sh.flushLocked()
	sh.commit.Unlock()
}

// flushLocked runs a mining pass and logs its WAL marker, so the marker
// sits between the same two group commits as the flush and crash replay
// re-executes it. The caller holds the commit lock.
func (sh *shard) flushLocked() {
	sh.det.Flush()
	if sh.wal != nil && sh.wal.appendFlush() != nil {
		sh.ctr.CommitErrs++
	}
}

// snapshot is the shard's snapshot step: under the commit lock, flush
// the pending buffer (logged like any other flush, so the mining pass
// survives a crash even when the snapshot never commits) and save. The
// hold is counted in Counters.SnapshotLockNs.
func (sh *shard) snapshot() ([]byte, error) {
	sh.commit.Lock()
	defer crashOnPanic()
	start := time.Now()
	sh.flushLocked()
	var buf bytes.Buffer
	err := sh.det.Save(&buf)
	sh.ctr.SnapshotLockNs += time.Since(start).Nanoseconds()
	sh.ctr.Snapshots++
	sh.commit.Unlock()
	return buf.Bytes(), err
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
func (sh *shard) count(start time.Time, docs int) {
	sh.ctr.CoalesceWaitNs += time.Since(start).Nanoseconds()
	sh.ctr.Docs += int64(docs)
	sh.ctr.Batches++
	if docs >= sh.maxBatch {
		sh.ctr.BatchesBySize++
	} else {
		sh.ctr.BatchesByDrain++
	}
	sh.ctr.MaxBatchDocs = max(sh.ctr.MaxBatchDocs, docs)
	sh.ctr.BatchSizeHist[min(bits.Len(uint(docs-1)), histBuckets-1)]++
}

// assignment returns the current verdict for a document id; ok is false
// for an id the detector has not issued.
func (sh *shard) assignment(id int) (a stream.Assignment, ok bool) {
	sh.commit.RLock()
	defer sh.commit.RUnlock()
	if id < 0 || id >= sh.det.NextID() {
		return stream.Assignment{}, false
	}
	return sh.det.Assignment(id), true
}

// templates returns the mined templates rendered for reporting. The
// slice is indexed by template id and includes retired slots (Dead set)
// so positions stay stable across evictions and merges; listings that
// only want live templates filter on Dead.
func (sh *shard) templates() []stream.TemplateInfo {
	sh.commit.RLock()
	defer sh.commit.RUnlock()
	out := make([]stream.TemplateInfo, sh.det.NumTemplates())
	for i := range out {
		out[i] = sh.det.TemplateInfo(i)
	}
	return out
}

// stats snapshots the detector, group-commit and WAL counters between
// group commits. The caller sets Shard.
func (sh *shard) stats() ShardStats {
	sh.commit.RLock()
	defer sh.commit.RUnlock()
	d, ds := sh.det, sh.det.Stats()
	st := ShardStats{Stats: Stats{
		Templates:   d.NumLive(),
		PendingDocs: d.Pending(),
		Matcher:     MatcherStats{MatchStats: ds.MatchStats},
		Lifecycle:   LifecycleStats{Live: d.NumLive(), VocabWords: d.VocabSize(), MineStats: ds.MineStats},
		Serve:       sh.ctr,
	}}
	st.deriveRates()
	sh.mu.Lock()
	st.Serve.QueueHighWater = sh.queueHW
	sh.mu.Unlock()
	if sh.wal != nil {
		ws := sh.wal.stats()
		st.WAL = &ws
	}
	return st
}
