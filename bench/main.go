// Command bench is the repository benchmark. It builds cmd/infoshieldd
// from the source tree, boots it on a free loopback port, drives it from
// this one process over at most two connections, runs infoshield.Detect
// in-process, checks every output against a serial reference, and prints
// every metric by name and unit. The last line of standard output is the
// result of the last workload run:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; see README.md):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	bash bench/run.sh -compare A1.json ... -- B1.json ...
//
// With no -workload every workload runs, each in a fresh process. With
// -trace 1 the run also replays the workload's requests one layer deeper
// at a time (the peel) and prints the per-layer metrics instead of the
// end-to-end ones. Each run writes its full record, fingerprint included,
// to the -out directory; -compare judges two sets of such records.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if seed := os.Getenv(detectOnceEnv); seed != "" {
		os.Exit(detectOnce(seed))
	}
	// A signal stops every child process before the harness exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan int, 1)
	go func() { done <- run(os.Args[1:], os.Stdout, os.Stderr) }()
	select {
	case code := <-done:
		os.Exit(code)
	case s := <-sigs:
		stopChildren(30 * time.Second)
		fmt.Fprintf(os.Stderr, "bench: %v: stopped every child process\n", s)
		os.Exit(130)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: every workload, each in a fresh process): "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 16, "run length: the measured phases of one workload take about this long")
	trace := fs.Int("trace", 0, "1: also run the per-layer peel, write span files and print the per-layer metrics")
	out := fs.String("out", "bench/out", "directory for run records and span files")
	root := fs.String("root", ".", "repository root holding the source tree to build")
	build := fs.String("build", ".bench_build", "directory for binaries and scratch files")
	compare := fs.Bool("compare", false, "compare run records: -compare A.json... -- B.json...")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds (for -compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), *benchFile, stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] | -compare A... -- B...")
		return 2
	}
	cfg := config{root: *root, build: *build, out: *out, seed: *seed, seconds: *seconds,
		trace: *trace == 1, setups: 5, peelDocs: 20000}
	if *workload == "" {
		return runEach(args, stdout, stderr)
	}
	rl, err := runWorkload(cfg, *workload, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(rl)
	if err == nil {
		_, err = fmt.Fprintf(stdout, "%s\n", line)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rl.Correct {
		return 1
	}
	return 0
}

// runEach runs every workload in its own process, so no workload's memory
// or warm caches reach the next one's measurements.
func runEach(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		// SIGTERM lets a workload run stop its own daemons first.
		if err := startChild(cmd, syscall.SIGTERM); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := cmd.Wait(); err != nil {
			code = 1
		}
		untrack(cmd)
	}
	return code
}

// runWorkload runs one workload, prints its report, writes its run
// record, and returns its result line.
func runWorkload(cfg config, name string, stdout io.Writer) (resultLine, error) {
	if err := os.MkdirAll(cfg.build, 0o755); err != nil {
		return resultLine{}, err
	}
	traced := ""
	if cfg.trace {
		traced = ", traced"
	}
	if _, err := fmt.Fprintf(stdout, "== %s (seed %d, %gs%s)\n", name, cfg.seed, cfg.seconds, traced); err != nil {
		return resultLine{}, err
	}
	var o *outcome
	var err error
	if spec, ok := findSpec(name); ok {
		var bin string
		if bin, err = buildDaemon(cfg.root, cfg.build); err != nil {
			return resultLine{}, err
		}
		o, err = runDaemon(cfg, spec, bin)
	} else if name == detectBatch {
		origin := time.Now()
		if o, err = runDetect(cfg); err == nil && cfg.trace {
			err = detectPeel(cfg, o, origin)
		}
	} else {
		return resultLine{}, fmt.Errorf("unknown workload (have %s)", strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return resultLine{}, err
	}
	for name, v := range o.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail("metric %s is %v", name, v)
			delete(o.values, name)
		}
	}
	rl := o.line(cfg.trace)
	path, err := writeRecord(cfg, o, rl)
	if err != nil {
		return resultLine{}, err
	}
	var b strings.Builder
	printReport(&b, o, cfg.trace, path)
	_, err = io.WriteString(stdout, b.String())
	return rl, err
}

// printReport renders a run's report: its step lines, every metric it
// measured by name and unit (the end-to-end ones, the per-layer ones when
// traced, and the report-only rest), and its failed checks.
func printReport(w *strings.Builder, o *outcome, traced bool, record string) {
	workload := o.workload
	for _, line := range o.report {
		fmt.Fprintf(w, "%s: %s\n", workload, line)
	}
	listed := map[string]bool{}
	show := func(kind string, defs []metricDef) {
		for _, d := range defs {
			listed[d.name] = true
			if v, ok := o.values[d.name]; ok {
				fmt.Fprintf(w, "%s: %-9s %-36s %14.6g %s\n", workload, kind, d.name, v, d.unit)
			}
		}
	}
	show("e2e", endToEnd)
	if traced {
		show("layer", perLayer)
	} else {
		for _, d := range perLayer {
			listed[d.name] = true
		}
	}
	var rest []string
	for name := range o.values {
		if !listed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Fprintf(w, "%s: %-9s %-36s %14.6g %s\n", workload, "report", name, o.values[name], o.units[name])
	}
	ff := 0.0
	if o.attempted > 0 {
		ff = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%s: %-9s %-36s %14.6g %s (%d of %d)\n", workload, "e2e", "fail_frac", ff, "ratio", o.failed, o.attempted)
	for _, c := range o.checks {
		fmt.Fprintf(w, "%s: CHECK FAILED: %s\n", workload, c)
	}
	fmt.Fprintf(w, "%s: record written to %s\n", workload, record)
}

// writeRecord writes the run record (and, when traced, the span file).
func writeRecord(cfg config, o *outcome, rl resultLine) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", err
	}
	head, dirty := gitState(cfg.root)
	rf := runFile{
		Workload: o.workload, Seed: cfg.seed, Traced: cfg.trace,
		Fingerprint: machineFingerprint(cfg.seconds),
		GitHead:     head, GitDirty: dirty,
		Phases:  o.phases,
		Correct: rl.Correct, Attempted: rl.Attempted, Failed: rl.Failed,
		Metrics: map[string]metricValue{}, Report: map[string]metricValue{},
		Checks: o.checks,
	}
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	for name, v := range o.values {
		if declared[name] {
			rf.Metrics[name] = metricValue{Value: v, Unit: o.units[name]}
		} else {
			rf.Report[name] = metricValue{Value: v, Unit: o.units[name]}
		}
	}
	stamp := time.Now().UTC().Format("20060102T150405.000000000")
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-%s.json", o.workload, cfg.seed, stamp))
	b, err := json.MarshalIndent(&rf, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	if cfg.trace {
		if err := writeSpans(filepath.Join(cfg.out, "trace-"+o.workload+".jsonl"), o); err != nil {
			return "", err
		}
	}
	return path, nil
}

func writeSpans(path string, o *outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range o.spans {
		rec := struct {
			Workload string `json:"workload"`
			span
		}{o.workload, o.spans[i]}
		if err := enc.Encode(&rec); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	return f.Close()
}

// gitState returns HEAD and whether the tree is dirty, or "unknown" when
// the root is not a git checkout.
func gitState(root string) (string, bool) {
	head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	return strings.TrimSpace(string(head)), err == nil && len(strings.TrimSpace(string(st))) > 0
}

// runCompare implements -compare A... -- B...
func runCompare(args []string, benchPath string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 0 {
		fmt.Fprintln(stderr, "usage: bench -compare A1.json ... -- B1.json ...")
		return 2
	}
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	load := func(paths []string) ([]*runFile, error) {
		var runs []*runFile
		for _, p := range paths {
			rf, err := readRunFile(p)
			if err != nil {
				return nil, err
			}
			runs = append(runs, rf)
		}
		return runs, nil
	}
	a, err := load(args[:sep])
	if err == nil {
		var b []*runFile
		if b, err = load(args[sep+1:]); err == nil {
			var bad bool
			bad, err = compareRuns(stdout, bf, a, b)
			if err == nil && bad {
				fmt.Fprintln(stdout, "compare: REGRESSION")
				return 1
			}
		}
	}
	if errors.Is(err, errNotComparable) {
		return 3
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, "compare: no regression")
	return 0
}
