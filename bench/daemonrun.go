package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"infoshield/internal/serve"
	"infoshield/internal/stream"
)

// config is one invocation's settings.
type config struct {
	root, build, out string
	seed             int64
	seconds          float64
	trace            bool
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// peelDocs caps the documents the traced peel replays.
	peelDocs int
}

// phasePlan scales a daemon workload's phases to the run length: 10% of
// it untimed warm-up at the low rate, 10% at each fixed rate in
// alternating windows, and a closed-loop capacity phase of a fixed
// document count that takes most of the rest. The gated metrics come
// from the capacity phase, so it gets the time.
type phasePlan struct {
	warm, window time.Duration
	rounds       int // low+high window pairs
	capDocs      int
}

// minWindowReqs keeps each window's median meaningful at the low rate.
const minWindowReqs = 40

func planFor(spec daemonSpec, seconds float64) phasePlan {
	sec := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	window := max(250*time.Millisecond,
		time.Duration(minWindowReqs*float64(spec.docsPerReq)/spec.lowRate*float64(time.Second)))
	rounds := max(1, int(math.Round(float64(sec(0.1))/float64(window))))
	reqs := max(2, int(math.Round(spec.capPerSec*seconds/float64(spec.docsPerReq))))
	return phasePlan{warm: sec(0.1), window: window, rounds: rounds, capDocs: reqs * spec.docsPerReq}
}

// request is one POST /v1/docs: its documents and the rendered request.
type request struct {
	texts []string
	body  []byte // JSON body
	raw   []byte // full HTTP request
}

func newRequest(texts []string) (request, error) {
	var body []byte
	var err error
	if len(texts) == 1 {
		body, err = json.Marshal(struct {
			Text string `json:"text"`
		}{texts[0]})
	} else {
		body, err = json.Marshal(struct {
			Texts []string `json:"texts"`
		}{texts})
	}
	if err != nil {
		return request{}, err
	}
	return request{texts: texts, body: body, raw: renderPost(body)}, nil
}

// makeRequests groups docs, per documents per request.
func makeRequests(docs []string, per int) ([]request, error) {
	var out []request
	for i := 0; i < len(docs); i += per {
		r, err := newRequest(docs[i:min(i+per, len(docs))])
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func draw(next func() string, n int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = next()
	}
	return docs
}

// stepLoad is one step's generated requests and lanes.
type stepLoad struct {
	name  string
	reqs  []request
	lanes []lane
}

// buildStep lays out one step's jobs. An open step sends documents at
// rate for d; a closed step (rate 0) sends n documents back to back over
// both connections. An open step of a workload that reads writes over
// the first connection and reads over the second at readRate; otherwise
// writes alternate over both.
func buildStep(spec daemonSpec, name string, next func() string, rate float64, d time.Duration,
	n int, conns []*conn, rng *rand.Rand) (stepLoad, error) {
	open := rate > 0
	if open {
		n = int(math.Round(rate * d.Seconds()))
	}
	reqs, err := makeRequests(draw(next, n), spec.docsPerReq)
	if err != nil {
		return stepLoad{}, err
	}
	st := stepLoad{name: name, reqs: reqs}
	reads := open && spec.readRate > 0
	writeLanes := len(conns)
	if reads {
		writeLanes = 1
	}
	for i := 0; i < writeLanes; i++ {
		st.lanes = append(st.lanes, lane{conn: conns[i], open: open})
	}
	reqRate := rate / float64(spec.docsPerReq)
	for i, r := range reqs {
		j := job{req: r.raw, ref: i, docs: len(r.texts)}
		if open {
			j.due = time.Duration(float64(i) / reqRate * float64(time.Second))
		}
		l := &st.lanes[i%writeLanes]
		l.jobs = append(l.jobs, j)
	}
	if reads {
		rl := lane{conn: conns[1], open: true, reads: true}
		for k := 0; k < int(spec.readRate*d.Seconds()); k++ {
			rl.jobs = append(rl.jobs, job{pick: rng.Float64(),
				due: time.Duration(float64(k) / spec.readRate * float64(time.Second))})
		}
		st.lanes = append(st.lanes, rl)
	}
	return st, nil
}

// buildSeedState builds the workload's seed state in-process — templates
// registered, seed documents submitted and flushed — writes it with
// Sharded.Snapshot to each path (the daemon gets its own copy, since its
// snapshots overwrite it), and returns the inline shard state
// Sharded.SnapshotTo gives.
func buildSeedState(spec daemonSpec, in *inputs, paths ...string) ([]byte, error) {
	det := spec.newDetector()
	for _, t := range in.templates {
		if _, err := det.Register(t.Words, t.Wild); err != nil {
			return nil, err
		}
	}
	sh, err := serve.NewSharded(serve.ShardedConfig{NewDetector: func() *stream.Detector { return det }})
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	for i := 0; i < len(in.seedDocs); i += seedChunk {
		if _, err := sh.Submit(in.seedDocs[i:min(i+seedChunk, len(in.seedDocs))]); err != nil {
			return nil, err
		}
	}
	if len(in.seedDocs) > 0 {
		if err := sh.Flush(); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if _, err := sh.Snapshot(path); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := sh.SnapshotTo(&buf); err != nil {
		return nil, err
	}
	return inlineState(buf.Bytes())
}

// seedChunk is the documents per request when seeding over HTTP.
const seedChunk = 64

// seedOverHTTP posts the seed documents and flushes them, returning the
// requests and reply bodies for the output checks.
func seedOverHTTP(d *daemon, docs []string) ([]request, [][]byte, error) {
	reqs, err := makeRequests(docs, seedChunk)
	if err != nil {
		return nil, nil, err
	}
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		if err := d.call("POST", "/v1/docs", r.body, &bodies[i]); err != nil {
			return nil, nil, err
		}
	}
	return reqs, bodies, d.call("POST", "/v1/flush", nil, nil)
}

// bootDaemon starts the workload's daemon and brings it to ready: state
// loaded, or seed documents posted and mined. It returns the seeding
// requests and replies, and the set-up time.
func bootDaemon(spec daemonSpec, bin, statePath string, in *inputs) (*daemon, []request, [][]byte, float64, error) {
	var args []string
	if spec.bootState {
		args = append(args, "-state", statePath)
	}
	t0 := time.Now()
	d, err := startDaemon(bin, append(args, spec.flags...))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if err := d.waitHealthy(60 * time.Second); err != nil {
		return nil, nil, nil, 0, err
	}
	var reqs []request
	var bodies [][]byte
	if !spec.bootState {
		if reqs, bodies, err = seedOverHTTP(d, in.seedDocs); err != nil {
			d.kill()
			return nil, nil, nil, 0, fmt.Errorf("seed: %w", err)
		}
	}
	return d, reqs, bodies, time.Since(t0).Seconds(), nil
}

// runDaemon runs one daemon workload end to end.
func runDaemon(cfg config, spec daemonSpec, bin string) (*outcome, error) {
	o := newOutcome(spec.name)
	plan := planFor(spec, cfg.seconds)
	o.phases["warmup_s"] = plan.warm.Seconds()
	o.phases["window_s"] = plan.window.Seconds()
	o.phases["windows_per_rate"] = float64(plan.rounds)
	o.phases["capacity_docs"] = float64(plan.capDocs)

	work, err := os.MkdirTemp(cfg.build, "run-"+spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Every input exists before the first timed phase.
	in := spec.gen(cfg.seed)
	statePath := filepath.Join(work, "seed", "state.json")
	daemonState := filepath.Join(work, "daemon", "state.json")
	seedState, err := buildSeedState(spec, in, statePath, daemonState)
	if err != nil {
		return nil, fmt.Errorf("seed state: %w", err)
	}
	in.templates = nil
	// Set-up, several times; the last daemon is measured.
	var d *daemon
	var seedReqs []request
	var seedBodies [][]byte
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		nd, reqs, bodies, s, err := bootDaemon(spec, bin, daemonState, in)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if i < cfg.setups-1 {
			nd.kill()
			continue
		}
		d, seedReqs, seedBodies = nd, reqs, bodies
	}
	defer d.kill()
	o.set("setup_s", median(setups))
	o.attempted += int64(len(seedReqs))
	o.logf("setup: %d boots, median %.3fs %.3f", len(setups), median(setups), setups)

	conns := make([]*conn, 2)
	for i := range conns {
		if conns[i], err = dial(d.addr); err != nil {
			return nil, err
		}
		defer conns[i].close()
	}
	// Warm-up, then low and high windows taking turns, so a slow stretch
	// of the machine lands on both rates alike, then capacity.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	var loads []stepLoad
	addStep := func(name string, rate float64, dur time.Duration) error {
		sl, err := buildStep(spec, name, in.next, rate, dur, plan.capDocs, conns, rng)
		loads = append(loads, sl)
		return err
	}
	if err := addStep("warmup", spec.lowRate, plan.warm); err != nil {
		return nil, err
	}
	for r := 0; r < plan.rounds; r++ {
		if err := addStep("low", spec.lowRate, plan.window); err != nil {
			return nil, err
		}
		if err := addStep("high", spec.highRate, plan.window); err != nil {
			return nil, err
		}
	}
	if err := addStep("capacity", 0, 0); err != nil {
		return nil, err
	}

	// The generator's own garbage collector stays off while it measures;
	// the replies it keeps are a few megabytes.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	lr := &loadRun{origin: time.Now(), pacer: newPacer()}
	lr.acked.Store(int64(len(in.seedDocs)))
	o.logf("pacer: nanosleep overshoot %v subtracted", lr.pacer.overshoot)
	spans := make([][]span, len(loads))
	var statsAt []serve.ShardedStats
	var memBefore memCounters
	stats := func() error {
		var st serve.ShardedStats
		err := d.call("GET", "/v1/stats", nil, &st)
		statsAt = append(statsAt, st)
		return err
	}
	for i, sl := range loads {
		if i == 1 || sl.name == "capacity" {
			if err := stats(); err != nil {
				return nil, err
			}
		}
		if sl.name == "capacity" {
			if memBefore, err = d.memStats(); err != nil {
				return nil, err
			}
		}
		spans[i] = lr.runStep(sl.name, sl.lanes)
	}
	debug.SetGCPercent(gcPercent)
	memAfter, err := d.memStats()
	if err != nil {
		return nil, err
	}
	if err := stats(); err != nil {
		return nil, err
	}
	rss, err := vmHWM(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	var snap []byte
	if err := d.call("POST", "/v1/snapshot", nil, &snap); err != nil {
		return nil, err
	}
	if err := d.stop(60 * time.Second); err != nil {
		o.fail("graceful shutdown: %v", err)
	}

	byName := map[string][][]span{}
	for i, sl := range loads {
		byName[sl.name] = append(byName[sl.name], spans[i])
	}
	low, high, capSt := summarizeRate(byName["low"]), summarizeRate(byName["high"]), summarizeRate(byName["capacity"])
	capRate, capPooled := capacityRate(byName["capacity"][0])
	o.logf("warmup   %s", summarizeRate(byName["warmup"]))
	o.logf("low      %s", low)
	o.logf("high     %s", high)
	o.logf("capacity %d docs: %.0f docs/s (median of %d slices; pooled %.0f) | %s",
		plan.capDocs, capRate, capacityChunks, capPooled, capSt)
	o.set("p50_ms", capSt.p50)
	o.set("capacity_docs_per_s", capRate)
	o.set("rss_peak_mb", rss)
	o.note("p50_ms.low", "ms", low.p50)
	o.note("p50_ms.high", "ms", high.p50)
	o.note("client.p99_ms.low", "ms", low.writes.p99)
	o.note("client.p99_ms.high", "ms", high.writes.p99)
	o.note("client.p99_ms.capacity", "ms", capSt.writes.p99)
	o.note("client.lateness_p50_us", "us", 1000*low.lateness.p50)
	o.note("client.lateness_p99_us", "us", 1000*low.lateness.p99)
	if spec.readRate > 0 {
		reads := summarizeRate(append(byName["low"], byName["high"]...))
		o.note("read_p50_ms", "ms", reads.readP50)
		o.note("read_slow_frac", "ratio", float64(reads.readsSlow)/float64(reads.reads.n))
	}
	capDocs := float64(plan.capDocs)
	o.set("process.alloc_kb_per_doc", (memAfter.totalAlloc-memBefore.totalAlloc)/1024/capDocs)
	o.set("process.gc_per_kdoc", (memAfter.numGC-memBefore.numGC)*1000/capDocs)
	reportServeStats(o, "windows", subStats(statsAt[1], statsAt[0]))
	reportServeStats(o, "capacity", subStats(statsAt[2], statsAt[1]))

	writeReqs, writeBodies := seedReqs, seedBodies
	for i, sl := range loads {
		for _, s := range spans[i] {
			o.attempted++
			if !s.ok() {
				o.failed++
			}
			if !s.Read {
				writeReqs, writeBodies = append(writeReqs, sl.reqs[s.ref]), append(writeBodies, s.body)
			}
		}
		if cfg.trace {
			o.spans = append(o.spans, spans[i]...)
		}
	}
	texts, malformed := collectAcks(o, writeReqs, writeBodies)
	o.failed += int64(malformed)
	var bootState []byte
	if spec.bootState {
		bootState = seedState
	}
	if texts != nil {
		checkState(o, spec, bootState, len(in.seedDocs), texts, snap)
	}
	o.logf("e2e: setup %.3fs | p50 %.3fms at capacity %.0f docs/s | rss %.1fMB | fixed-rate p50 low %.3fms high %.3fms",
		o.values["setup_s"], capSt.p50, capRate, rss, low.p50, high.p50)

	if cfg.trace {
		var peelReqs []request
		docs := 0
		for _, sl := range loads {
			for _, r := range sl.reqs {
				if sl.name != "low" || docs >= cfg.peelDocs {
					break
				}
				peelReqs = append(peelReqs, r)
				docs += len(r.texts)
			}
		}
		if err := runPeel(o, peelInput{spec: spec, statePath: statePath, state: seedState,
			reqs: peelReqs, dir: work, origin: lr.origin}); err != nil {
			return nil, err
		}
		o.note("trace.unattributed_us", "us", 1000*low.p50-o.values["peel.L1_us"])
		coreTimings(o, peelTexts(peelReqs))
	}
	return o, nil
}

func peelTexts(reqs []request) []string {
	var texts []string
	for _, r := range reqs {
		texts = append(texts, r.texts...)
	}
	return texts
}

// subStats returns the deltas of the counters the report uses.
func subStats(after, before serve.ShardedStats) serve.ShardedStats {
	d := after
	d.Total.Serve.Docs -= before.Total.Serve.Docs
	d.Total.Serve.Batches -= before.Total.Serve.Batches
	d.Total.Serve.CoalesceWaitNs -= before.Total.Serve.CoalesceWaitNs
	d.Total.Lifecycle.Flushes -= before.Total.Lifecycle.Flushes
	d.Total.Lifecycle.FlushDocs -= before.Total.Lifecycle.FlushDocs
	return d
}

// reportServeStats records the daemon's own counters over one phase.
func reportServeStats(o *outcome, phase string, st serve.ShardedStats) {
	sv, lc := st.Total.Serve, st.Total.Lifecycle
	line := fmt.Sprintf("%-8s daemon: ", phase)
	if sv.Batches > 0 {
		dpb := float64(sv.Docs) / float64(sv.Batches)
		wait := float64(sv.CoalesceWaitNs) / float64(sv.Batches) / 1000
		o.note("serve.coalesce.docs_per_batch."+phase, "count", dpb)
		o.note("serve.coalesce.wait_us_per_batch."+phase, "us", wait)
		line += fmt.Sprintf("docs/batch %.2f, batch wait %.1fus, ", dpb, wait)
	}
	line += fmt.Sprintf("flushes %d (%d docs), live templates %d, queue high water %d",
		lc.Flushes, lc.FlushDocs, lc.Live, sv.QueueHighWater)
	if phase == "capacity" {
		o.note("serve.coalesce.queue_high_water", "count", float64(sv.QueueHighWater))
		o.note("stream.lifecycle.retired", "count", float64(lc.Merged+lc.Evicted+lc.AgedOut))
		o.note("stream.mine.reuse_rate", "ratio", lc.ReuseRate)
	}
	o.logf("%s", line)
}
