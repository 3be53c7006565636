package main

import (
	"runtime"
	"strings"
	"testing"
)

// TestParseStampsMachine: the header carries the cpu line, nproc, and the
// GOMAXPROCS from the first result's -N name suffix; result names keep
// their suffix, and promoted metrics land in their fields.
func TestParseStampsMachine(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: infoshield/internal/stream
cpu: Intel(R) Xeon(R) Processor
BenchmarkStreamLifecycleFlush/mine-drift-2   	     200	   5877084 ns/op	   6483552 flush-p50-ns	        64.00 live-templates	     22957 ns/doc	 1042096 B/op	    1321 allocs/op
BenchmarkStreamLifecycleFlush/mine-drift-4   	     200	   5000000 ns/op
PASS
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPU != "Intel(R) Xeon(R) Processor" || rep.Nproc != runtime.NumCPU() || rep.GOMAXPROCS != 2 {
		t.Fatalf("header cpu %q nproc %d gomaxprocs %d, want the cpu line, %d, 2",
			rep.CPU, rep.Nproc, rep.GOMAXPROCS, runtime.NumCPU())
	}
	if len(rep.Results) != 2 {
		t.Fatalf("%d results, want 2", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkStreamLifecycleFlush/mine-drift-2" || r.NsPerOp != 5877084 ||
		r.FlushP50Ns != 6483552 || r.BytesPerOp != 1042096 || r.AllocsPerOp != 1321 ||
		r.Extra["ns/doc"] != 22957 || r.Extra["live-templates"] != 64 {
		t.Fatalf("result %+v", r)
	}
}

// TestProcsSuffix: go test omits the suffix at GOMAXPROCS 1, and a name
// whose last dash is not followed by a number has none.
func TestProcsSuffix(t *testing.T) {
	for name, want := range map[string]int{
		"BenchmarkStreamAdd-8":                         8,
		"BenchmarkStreamAdd":                           1,
		"BenchmarkStreamLifecycleFlush/from-scratch":   1,
		"BenchmarkStreamLifecycleFlush/from-scratch-2": 2,
		"BenchmarkTopPhraseIDs/accounts=800x10-16":     16,
		"BenchmarkX/odd-0":                             1,
	} {
		if got := procsSuffix(name); got != want {
			t.Errorf("procsSuffix(%q) = %d, want %d", name, got, want)
		}
	}
}
