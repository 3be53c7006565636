// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON document, so CI can archive benchmark runs as
// machine-readable artifacts and diff them across commits.
//
// Usage:
//
//	go test -bench=. -benchmem -run '^$' | benchjson -o BENCH.json
//
// Each "BenchmarkX ... N iter ... ns/op ..." result line becomes one
// entry; repeated names (from -count=N) stay separate entries so
// downstream tooling can aggregate however it likes. The goos / goarch /
// pkg / cpu header lines are captured as run metadata, and the header
// also stamps the machine: nproc (the logical CPUs of the machine
// running benchjson, which runs beside the benchmark) and the GOMAXPROCS
// of the run, read from the -N suffix go test appends to benchmark names
// (no suffix means 1; under a -cpu list the first result's value).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// CandPerProbe and DPSkipRate are the matcher's two headline serving
	// metrics (candidates examined per probe, and the fraction of
	// candidates resolved without an exact DP), promoted from Extra so
	// regression tooling can diff them without knowing ReportMetric unit
	// strings.
	CandPerProbe float64 `json:"cand_per_probe,omitempty"`
	DPSkipRate   float64 `json:"dp_skip_rate,omitempty"`
	// FlushP50Ns and FlushP99Ns are the lifecycle benchmark's flush-
	// latency distribution (mining-pass wall-clock per flush at steady
	// state), promoted for the same reason.
	FlushP50Ns float64 `json:"flush_p50_ns,omitempty"`
	FlushP99Ns float64 `json:"flush_p99_ns,omitempty"`
	// Extra holds any benchmark metric beyond those above
	// (e.g. MB/s from SetBytes, or custom ReportMetric units).
	Extra map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Nproc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Results    []result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(enc); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(r io.Reader) (*report, error) {
	rep := &report{Nproc: runtime.NumCPU(), Results: []result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseResult(line)
			if ok {
				if len(rep.Results) == 0 {
					rep.GOMAXPROCS = procsSuffix(res.Name)
				}
				rep.Results = append(rep.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// procsSuffix returns the GOMAXPROCS go test encodes as a "-N" suffix of
// a benchmark name, or 1 when the name has none (go test omits it at 1).
func procsSuffix(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n < 1 {
		return 1
	}
	return n
}

// parseResult parses one benchmark result line:
//
//	BenchmarkFine/workers=1   40   27097762 ns/op   7049147 B/op   28544 allocs/op
//
// Fields after the iteration count come in (value, unit) pairs.
func parseResult(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	res := result{Name: fields[0], Iters: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		case "cand/probe":
			res.CandPerProbe = v
		case "dpskip/candidate":
			res.DPSkipRate = v
		case "flush-p50-ns":
			res.FlushP50Ns = v
		case "flush-p99-ns":
			res.FlushP99Ns = v
		default:
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[unit] = v
		}
	}
	return res, true
}
