package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"infoshield"
	"infoshield/internal/corpus"
	"infoshield/internal/datagen"
	"infoshield/internal/metrics"
)

// The detect-batch corpus has a fixed shape, 800 accounts × 10 tweets,
// so a seed changes the text but not the corpus size; many small
// accounts average out the per-seed differences in cluster structure
// that Detect's wall-clock depends on.
const (
	accountsPerKind  = 400
	tweetsPerAccount = 10
)

// Output-quality floors for detect-batch.
const (
	minF1  = 0.97
	minARI = 0.78
)

// twitterCorpus is the detect-batch input: the synthetic Cresci-style
// corpus of genuine and bot accounts in four languages.
func twitterCorpus(seed int64) *corpus.Corpus {
	return datagen.Twitter(datagen.TwitterConfig{Seed: seed,
		GenuineAccounts: accountsPerKind, BotAccounts: accountsPerKind,
		TweetsPerAccountMin: tweetsPerAccount, TweetsPerAccountMax: tweetsPerAccount})
}

// detectOnceEnv, when set to a seed, makes the process time one Detect
// call on that seed's corpus and print the seconds: the cold set-up a
// fresh process pays, measured in a child so it can be repeated.
const detectOnceEnv = "BENCH_DETECT_ONCE_SEED"

func detectOnce(seedStr string) int {
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	texts := twitterCorpus(seed).Texts()
	t := time.Now()
	infoshield.Detect(texts, infoshield.Config{})
	fmt.Println(time.Since(t).Seconds())
	return 0
}

// coldDetect runs detectOnce in a fresh copy of this binary.
func coldDetect(seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), detectOnceEnv+"="+strconv.FormatInt(seed, 10))
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := startChild(cmd, syscall.SIGKILL); err != nil {
		return 0, err
	}
	err = cmd.Wait()
	untrack(cmd)
	if err != nil {
		return 0, fmt.Errorf("cold Detect child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(out.String()), 64)
}

// templateHash fingerprints a Detect result's per-document templates.
func templateHash(res *infoshield.Result) uint64 {
	h := fnv.New64a()
	b := make([]byte, 0, 8)
	for _, t := range res.DocTemplate() {
		b = strconv.AppendInt(b[:0], int64(t), 10)
		b = append(b, ',')
		_, _ = h.Write(b)
	}
	return h.Sum64()
}

// runDetect runs detect-batch: in-process Detect on the Twitter corpus,
// back to back from one caller (latency) and from two (capacity).
func runDetect(cfg config) (*outcome, error) {
	o := newOutcome(detectBatch)
	phase := time.Duration(0.4 * cfg.seconds * float64(time.Second))
	o.phases["one_caller_s"] = phase.Seconds()
	o.phases["two_callers_s"] = phase.Seconds()
	c := twitterCorpus(cfg.seed)
	texts := c.Texts()
	docs := float64(len(texts))

	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		s, err := coldDetect(cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	o.set("setup_s", median(setups))
	o.logf("setup: %d cold Detect calls in fresh processes, median %.3fs %.3f", len(setups), median(setups), setups)

	// Untimed warm-up: the reference output and the quality checks.
	warm := infoshield.Detect(texts, infoshield.Config{})
	o.attempted++
	want := templateHash(warm)
	truthSusp := make([]bool, len(c.Docs))
	truthCl := make([]int, len(c.Docs))
	for i, d := range c.Docs {
		truthSusp[i], truthCl[i] = d.Label, d.ClusterLabel
	}
	f1 := metrics.NewConfusion(warm.Suspicious(), truthSusp).F1()
	ari := metrics.ARI(warm.DocTemplate(), truthCl)
	o.note("f1", "ratio", f1)
	o.note("ari", "ratio", ari)
	if f1 < minF1 {
		o.fail("F1 %.4f below %.2f", f1, minF1)
	}
	if ari < minARI {
		o.fail("ARI %.4f below %.2f", ari, minARI)
	}
	o.logf("corpus: %d tweets, %d templates; F1 %.4f ARI %.4f", len(texts), warm.NumTemplates(), f1, ari)

	// run times one Detect and checks its output against the warm-up's.
	var mu sync.Mutex
	run := func() (float64, infoshield.Timings) {
		t := time.Now()
		res := infoshield.Detect(texts, infoshield.Config{})
		ms := float64(time.Since(t)) / float64(time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		o.attempted++
		if templateHash(res) != want {
			o.failed++
		}
		return ms, res.Timings()
	}

	// One caller, back to back.
	var low []float64
	var timings []infoshield.Timings
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for start := time.Now(); len(low) < 3 || time.Since(start) < phase; {
		ms, t := run()
		low, timings = append(low, ms), append(timings, t)
	}
	runtime.ReadMemStats(&ms1)
	runs := float64(len(low))
	o.set("p50_ms", median(low))
	o.note("docs_per_s", "docs/s", docs/(median(low)/1000))
	o.set("core.alloc_mb_per_run", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/runs)
	o.set("process.alloc_kb_per_doc", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/(runs*docs))
	o.set("process.gc_per_kdoc", float64(ms1.NumGC-ms0.NumGC)*1000/(runs*docs))
	recordTimings(o, timings)
	// Peak memory with one Detect at a time; two concurrent calls would
	// make it depend on how their garbage-collection cycles interleave.
	rss, err := vmHWM(0)
	if err != nil {
		return nil, err
	}
	o.set("rss_peak_mb", rss)

	// Two concurrent callers, back to back.
	var high []float64
	var wg sync.WaitGroup
	perCaller := make([][]float64, 2)
	start := time.Now()
	for k := range perCaller {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for len(perCaller[k]) < 2 || time.Since(start) < phase {
				ms, _ := run()
				perCaller[k] = append(perCaller[k], ms)
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, p := range perCaller {
		high = append(high, p...)
	}
	o.note("p50_ms.two_callers", "ms", median(high))
	o.set("capacity_docs_per_s", docs*float64(len(high))/elapsed.Seconds())
	o.logf("one caller  %d runs p50 %.1fms (%.0f docs/s) | two callers %d runs p50 %.1fms",
		len(low), median(low), o.values["docs_per_s"], len(high), median(high))
	o.logf("e2e: setup %.3fs | p50 %.1fms (one caller), %.1fms (two) | capacity %.0f docs/s | rss %.1fMB",
		o.values["setup_s"], median(low), median(high), o.values["capacity_docs_per_s"], rss)
	if o.failed > 0 {
		o.fail("%d Detect runs returned a different DocTemplate than the warm-up", o.failed)
	}
	return o, nil
}

// detectPeel replays the detect-batch corpus, one tweet per request,
// through the serving layers from an empty detector with the daemon's
// defaults — the per-layer cost of streaming this corpus instead of
// batching it.
func detectPeel(cfg config, o *outcome, origin time.Time) error {
	spec := daemonSpec{name: detectBatch, docsPerReq: 1, newDetector: defaultDetector}
	work, err := os.MkdirTemp(cfg.build, "run-"+detectBatch+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	statePath := filepath.Join(work, "state.json")
	state, err := buildSeedState(spec, &inputs{}, statePath)
	if err != nil {
		return err
	}
	texts := twitterCorpus(cfg.seed).Texts()
	if len(texts) > cfg.peelDocs {
		texts = texts[:cfg.peelDocs]
	}
	reqs := make([]request, len(texts))
	for i, t := range texts {
		if reqs[i], err = newRequest([]string{t}); err != nil {
			return err
		}
	}
	return runPeel(o, peelInput{spec: spec, statePath: statePath, state: state, reqs: reqs, dir: work, origin: origin})
}
