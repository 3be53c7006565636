package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metricDef names one reported metric. The end-to-end and per-layer lists
// are the ones BENCHMARK.json declares (TestBenchmarkFileMatches keeps the
// two in step); every workload reports every metric on both lists.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Each workload
// defines them over its own unit of work (see README.md): for the daemon
// workloads a POST /v1/docs request with two in flight back to back, for
// detect-batch one Detect call.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"capacity_docs_per_s", "docs/s", "higher"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer are the traced run's layer metrics: peel self times and the
// counters measured where the work happens.
var perLayer = []metricDef{
	{"serve.http.self_us_per_req", "us", "lower"},
	{"serve.http.allocs_per_req", "count", "lower"},
	{"serve.wal.self_us_per_req", "us", "lower"},
	{"serve.wal.bytes_per_record", "bytes", "lower"},
	{"serve.submit.self_us_per_req", "us", "lower"},
	{"serve.load_s", "s", "lower"},
	{"tokenize.us_per_doc", "us", "lower"},
	{"stream.match.us_per_doc", "us", "lower"},
	{"stream.match.cand_per_probe", "count", "lower"},
	{"stream.match.dp_skip_rate", "ratio", "higher"},
	{"stream.match.walk_ns_per_probe", "ns", "lower"},
	{"stream.match.bound_ns_per_probe", "ns", "lower"},
	{"stream.match.bitdp_ns_per_probe", "ns", "lower"},
	{"stream.match.exactdp_ns_per_probe", "ns", "lower"},
	{"stream.mine.flush_p50_ms", "ms", "lower"},
	{"stream.mine.flushes_per_kdoc", "1/kdoc", "lower"},
	{"stream.lifecycle.live", "count", "lower"},
	{"core.tokenize_ms", "ms", "lower"},
	{"core.coarse.extract_ms", "ms", "lower"},
	{"core.coarse.score_ms", "ms", "lower"},
	{"core.coarse.components_ms", "ms", "lower"},
	{"core.fine.screen_ms", "ms", "lower"},
	{"core.fine.align_ms", "ms", "lower"},
	{"core.fine.consensus_ms", "ms", "lower"},
	{"core.fine.slots_ms", "ms", "lower"},
	{"core.alloc_mb_per_run", "MB", "lower"},
	{"process.alloc_kb_per_doc", "KB", "lower"},
	{"process.gc_per_kdoc", "1/kdoc", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints: the benchmark's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is everything one workload run measured. values holds every
// metric by name (end-to-end, per-layer and report-only); checks lists
// the output checks that failed.
type outcome struct {
	workload  string
	values    map[string]float64
	units     map[string]string // every metric's unit
	report    []string          // human-readable lines, printed before the result
	attempted int64
	failed    int64
	checks    []string
	phases    map[string]float64
	spans     []span
}

func newOutcome(workload string) *outcome {
	o := &outcome{workload: workload, values: map[string]float64{}, units: map[string]string{},
		phases: map[string]float64{}}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		o.units[d.name] = d.unit
	}
	return o
}

// set records a metric declared in endToEnd or perLayer.
func (o *outcome) set(name string, v float64) { o.values[name] = v }

// note records a report-only metric.
func (o *outcome) note(name, unit string, v float64) {
	o.values[name] = v
	o.units[name] = unit
}

func (o *outcome) logf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool { return len(o.checks) == 0 && o.failed == 0 }

// line builds the result line with the end-to-end metrics, or with the
// per-layer metrics for a traced run. A metric the run did not measure
// is a harness bug and fails the run.
func (o *outcome) line(traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rl := resultLine{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			o.fail("metric %s was not measured", d.name)
			rl.Correct = false
			continue
		}
		rl.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if rl.Attempted < 1 {
		rl.Attempted = 1
	}
	return rl
}

// fingerprint is what two runs must share to be compared: the machine
// and the run length. Commits and seeds may differ.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seconds    float64 `json:"seconds"`
}

func machineFingerprint(seconds float64) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Seconds:    seconds,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runFile is the record one workload run writes to the output directory;
// -compare reads these.
type runFile struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Traced      bool                   `json:"traced"`
	Fingerprint fingerprint            `json:"fingerprint"`
	GitHead     string                 `json:"git_head"`
	GitDirty    bool                   `json:"git_dirty"`
	Phases      map[string]float64     `json:"phases"`
	Correct     bool                   `json:"correct"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Report      map[string]metricValue `json:"report"`
	Checks      []string               `json:"failed_checks,omitempty"`
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
