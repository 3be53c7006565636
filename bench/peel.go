package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"infoshield"
	"infoshield/internal/serve"
	"infoshield/internal/stream"
	"infoshield/internal/tokenize"
)

// peelInput is what the traced peel replays: a workload's first requests,
// in their request shapes, from the workload's seed state.
type peelInput struct {
	spec      daemonSpec
	statePath string // seed state file (a Sharded.Snapshot manifest)
	state     []byte // the same state inline, for the bare detectors
	reqs      []request
	dir       string // scratch space for WAL directories
	origin    time.Time
}

// level is one peel level's measurements.
type level struct {
	name    string
	starts  []time.Time
	durs    []time.Duration // per request
	mallocs uint64
	state   []byte // compacted Save bytes after the replay (nil for L5)
	// walBytesPerRecord is the WAL's appended bytes per document (levels
	// with the WAL on).
	walBytesPerRecord float64
}

func newLevel(name string, n int) level {
	return level{name: name, starts: make([]time.Time, n), durs: make([]time.Duration, n)}
}

// record stores request i's span.
func (l *level) record(i int, start time.Time) {
	l.starts[i], l.durs[i] = start, time.Since(start)
}

func (l level) medianUs() float64 {
	us := make([]float64, len(l.durs))
	for i, d := range l.durs {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	return median(us)
}

// runPeel replays the requests single-threaded five times, each level on
// a fresh instance built from the seed state:
//
//	L1 Server.Handler().ServeHTTP, in-memory request and recorder, WAL off
//	L2 Sharded.Submit, WAL on
//	L3 Sharded.Submit, WAL off
//	L4 Detector.AddBatchTokens on a bare detector, tokens made outside the span
//	L5 Tokenizer.Tokens
//
// A layer's self time is its level's median minus the level below it:
// HTTP is L1−L3 and the WAL L2−L3, both against the same WAL-off
// baseline, because an fsync on a shared disk is noisier than the whole
// HTTP shell. Every level with state must end in the same Save bytes.
func runPeel(o *outcome, in peelInput) error {
	var loads []float64
	l1, load1, err := in.shardedLevel("L1", false, true)
	if err != nil {
		return err
	}
	l2, load2, err := in.shardedLevel("L2", true, false)
	if err != nil {
		return err
	}
	l3, load3, err := in.shardedLevel("L3", false, false)
	if err != nil {
		return err
	}
	loads = append(loads, load1, load2, load3)
	l4, st, live, err := in.detectorLevel()
	if err != nil {
		return err
	}
	l5 := in.tokenizeLevel()
	levels := []level{l1, l2, l3, l4, l5}
	for _, l := range levels[1:4] {
		if !bytes.Equal(l.state, l1.state) {
			o.fail("peel %s ends in a different state than L1: %s", l.name, firstDiff(l.state, l1.state))
		}
	}

	nreq := float64(len(in.reqs))
	per := float64(in.spec.docsPerReq)
	m := make([]float64, len(levels))
	for i, l := range levels {
		m[i] = l.medianUs()
		o.note("peel."+l.name+"_us", "us", m[i])
		for k, d := range l.durs {
			send := int64(l.starts[k].Sub(in.origin))
			o.spans = append(o.spans, span{ID: k, Step: "peel." + l.name, Docs: len(in.reqs[k].texts),
				Due: send, Send: send, Done: send + int64(d), Status: http.StatusOK})
		}
	}
	o.set("serve.http.self_us_per_req", m[0]-m[2])
	o.set("serve.http.allocs_per_req", (float64(l1.mallocs)-float64(l3.mallocs))/nreq)
	o.set("serve.wal.self_us_per_req", m[1]-m[2])
	o.set("serve.wal.bytes_per_record", l2.walBytesPerRecord)
	o.set("serve.submit.self_us_per_req", m[2]-m[3]-m[4])
	o.set("serve.load_s", median(loads))
	o.set("tokenize.us_per_doc", m[4]/per)
	o.set("stream.match.us_per_doc", m[3]/per)
	if st.Probes > 0 {
		p := float64(st.Probes)
		o.set("stream.match.cand_per_probe", float64(st.Examined)/p)
		o.set("stream.match.walk_ns_per_probe", float64(st.WalkNs)/p)
		o.set("stream.match.bound_ns_per_probe", float64(st.BoundNs)/p)
		o.set("stream.match.bitdp_ns_per_probe", float64(st.BitDPNs)/p)
		o.set("stream.match.exactdp_ns_per_probe", float64(st.ExactDPNs)/p)
	}
	if st.Candidates > 0 {
		o.set("stream.match.dp_skip_rate", float64(st.DPPruned)/float64(st.Candidates))
	}
	o.set("stream.lifecycle.live", float64(live))
	o.logf("peel (%d requests): L1 %.2fus  L2 %.2fus  L3 %.2fus  L4 %.2fus  L5 %.2fus per request; levels end in identical state",
		len(in.reqs), m[0], m[1], m[2], m[3], m[4])
	o.logf("self: http %.2fus  wal %.2fus  submit %.2fus per request | tokenize %.3fus  match %.3fus per doc | load %.3fs",
		m[0]-m[2], m[1]-m[2], m[2]-m[3]-m[4], m[4]/per, m[3]/per, median(loads))
	return in.flushTiming(o)
}

// shardedLevel replays the requests through a fresh Sharded, over the
// HTTP handler (viaHTTP) or Submit, and reports how long NewSharded took
// to load the seed state.
func (in peelInput) shardedLevel(name string, wal, viaHTTP bool) (level, float64, error) {
	cfg := serve.ShardedConfig{StatePath: in.statePath, NewDetector: in.spec.newDetector}
	if wal {
		dir, err := os.MkdirTemp(in.dir, "peel-wal-")
		if err != nil {
			return level{}, 0, err
		}
		defer os.RemoveAll(dir)
		cfg.WALDir = dir
	}
	t0 := time.Now()
	sh, err := serve.NewSharded(cfg)
	if err != nil {
		return level{}, 0, err
	}
	load := time.Since(t0).Seconds()
	defer sh.Close()
	h := serve.NewServer(sh, "").Handler()

	l := newLevel(name, len(in.reqs))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, r := range in.reqs {
		if viaHTTP {
			req := httptest.NewRequest(http.MethodPost, "/v1/docs", bytes.NewReader(r.body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			t := time.Now()
			h.ServeHTTP(rec, req)
			l.record(i, t)
			if rec.Code != http.StatusOK {
				return level{}, 0, fmt.Errorf("peel %s: request %d: status %d: %s", name, i, rec.Code, rec.Body.Bytes())
			}
			continue
		}
		t := time.Now()
		_, err := sh.Submit(r.texts)
		l.record(i, t)
		if err != nil {
			return level{}, 0, fmt.Errorf("peel %s: request %d: %w", name, i, err)
		}
	}
	runtime.ReadMemStats(&ms1)
	l.mallocs = ms1.Mallocs - ms0.Mallocs
	if wal {
		st, err := sh.Stats()
		if err != nil {
			return level{}, 0, err
		}
		if w := st.PerShard[0].WAL; w != nil && w.Records > 0 {
			l.walBytesPerRecord = float64(w.Bytes) / float64(w.Records)
		}
	}
	var buf bytes.Buffer
	if err := sh.SnapshotTo(&buf); err != nil {
		return level{}, 0, err
	}
	if l.state, err = inlineState(buf.Bytes()); err != nil {
		return level{}, 0, err
	}
	return l, load, nil
}

// tokens tokenizes every request outside any span.
func (in peelInput) tokens() [][][]string {
	var tk tokenize.Tokenizer
	words := make([][][]string, len(in.reqs))
	for i, r := range in.reqs {
		words[i] = make([][]string, len(r.texts))
		for j, t := range r.texts {
			words[i][j] = tk.Tokens(t)
		}
	}
	return words
}

// bareDetector builds the workload's detector loaded with the seed state.
func (in peelInput) bareDetector() (*stream.Detector, error) {
	det := in.spec.newDetector()
	if err := det.Load(bytes.NewReader(in.state)); err != nil {
		return nil, err
	}
	return det, nil
}

// detectorLevel is L4: the bare detector's batched ingest. It also
// returns the matcher counters and the live template count.
func (in peelInput) detectorLevel() (level, stream.Stats, int, error) {
	det, err := in.bareDetector()
	if err != nil {
		return level{}, stream.Stats{}, 0, err
	}
	words := in.tokens()
	l := newLevel("L4", len(in.reqs))
	for i, r := range in.reqs {
		t := time.Now()
		det.AddBatchTokens(r.texts, words[i])
		l.record(i, t)
	}
	st, live := det.Stats(), det.NumLive()
	det.Flush()
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		return level{}, st, 0, err
	}
	l.state, err = compactJSON(buf.Bytes())
	return l, st, live, err
}

// tokenSink keeps L5's tokenizer results live.
var tokenSink int

// tokenizeLevel is L5.
func (in peelInput) tokenizeLevel() level {
	var tk tokenize.Tokenizer
	l := newLevel("L5", len(in.reqs))
	for i, r := range in.reqs {
		t := time.Now()
		for _, text := range r.texts {
			tokenSink += len(tk.Tokens(text))
		}
		l.record(i, t)
	}
	return l
}

// flushTiming times mining passes on a bare detector configured like the
// daemon but with BatchSize raised, flushing whenever Pending reaches the
// daemon's mining batch (and once at the end for any remainder).
func (in peelInput) flushTiming(o *outcome) error {
	det, err := in.bareDetector()
	if err != nil {
		return err
	}
	mineBatch := det.BatchSize
	det.BatchSize = 1 << 30
	words := in.tokens()
	var flushes []float64
	flush := func() {
		t := time.Now()
		det.Flush()
		flushes = append(flushes, float64(time.Since(t))/float64(time.Millisecond))
	}
	docs := 0
	for i, r := range in.reqs {
		det.AddBatchTokens(r.texts, words[i])
		docs += len(r.texts)
		if det.Pending() >= mineBatch {
			flush()
		}
	}
	if det.Pending() > 0 {
		flush()
	}
	if len(flushes) > 0 {
		s := sortedCopy(flushes)
		o.set("stream.mine.flush_p50_ms", percentile(s, 0.5))
		o.set("stream.mine.flushes_per_kdoc", float64(len(flushes))*1000/float64(docs))
		o.logf("mining: %d flushes of <=%d docs over %d docs, p50 %.2fms max %.2fms",
			len(flushes), mineBatch, docs, percentile(s, 0.5), s[len(s)-1])
	}
	return nil
}

// coreTimings runs Detect over texts a few times and records the median
// stage timings and allocation per run.
func coreTimings(o *outcome, texts []string) {
	const runs = 3
	var ts []infoshield.Timings
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < runs; i++ {
		ts = append(ts, infoshield.Detect(texts, infoshield.Config{}).Timings())
	}
	runtime.ReadMemStats(&ms1)
	recordTimings(o, ts)
	o.set("core.alloc_mb_per_run", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/runs)
}

// recordTimings stores the median of each Detect stage timing.
func recordTimings(o *outcome, ts []infoshield.Timings) {
	stages := []struct {
		name string
		get  func(infoshield.Timings) time.Duration
	}{
		{"core.tokenize_ms", func(t infoshield.Timings) time.Duration { return t.Tokenize }},
		{"core.coarse.extract_ms", func(t infoshield.Timings) time.Duration { return t.CoarseExtract }},
		{"core.coarse.score_ms", func(t infoshield.Timings) time.Duration { return t.CoarseScore }},
		{"core.coarse.components_ms", func(t infoshield.Timings) time.Duration { return t.CoarseComponents }},
		{"core.fine.screen_ms", func(t infoshield.Timings) time.Duration { return t.FineScreen }},
		{"core.fine.align_ms", func(t infoshield.Timings) time.Duration { return t.FineAlign }},
		{"core.fine.consensus_ms", func(t infoshield.Timings) time.Duration { return t.FineConsensus }},
		{"core.fine.slots_ms", func(t infoshield.Timings) time.Duration { return t.FineSlots }},
		{"core.coarse_ms", func(t infoshield.Timings) time.Duration { return t.Coarse }},
		{"core.fine_ms", func(t infoshield.Timings) time.Duration { return t.Fine }},
	}
	for _, s := range stages {
		v := make([]float64, len(ts))
		for i, t := range ts {
			v[i] = float64(s.get(t)) / float64(time.Millisecond)
		}
		o.note(s.name, "ms", median(v))
	}
	o.logf("detect stages (median of %d): coarse %.1fms (extract %.1f score %.1f components %.1f) fine %.1fms",
		len(ts), o.values["core.coarse_ms"], o.values["core.coarse.extract_ms"],
		o.values["core.coarse.score_ms"], o.values["core.coarse.components_ms"], o.values["core.fine_ms"])
}
