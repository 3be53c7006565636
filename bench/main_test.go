package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	// The detect-batch set-up re-executes this binary for a cold Detect.
	if seed := os.Getenv(detectOnceEnv); seed != "" {
		os.Exit(detectOnce(seed))
	}
	os.Exit(m.Run())
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the harness in step:
// the same workloads, and every metric the harness emits declared with
// the same unit and direction.
func TestBenchmarkFileMatches(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, harness %s", got, want)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if i < len(endToEnd) && (endToEnd[i] != metricDef{m.Name, m.Unit, m.Better}) {
			t.Errorf("end_to_end[%d] = %+v, harness %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > bf.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v above setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if i < len(perLayer) && (perLayer[i] != metricDef{m.Name, m.Unit, m.Better}) {
			t.Errorf("per_layer[%d] = %+v, harness %+v", i, m, perLayer[i])
		}
	}
}

// TestSmoke runs every workload with each phase scaled to about half a
// second, traced, so the harness, the daemon build, the output checks and
// the peel all run. Each run's last output line must be a correct result
// carrying every per-layer metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon and loads a 100k-template state")
	}
	cfg := config{root: "..", build: t.TempDir(), out: t.TempDir(), seed: 3, seconds: 1.5,
		trace: true, setups: 1, peelDocs: 2000}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			rl, err := runWorkload(cfg, name, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
				t.Fatalf("result %+v\n%s", rl, out.String())
			}
			for _, d := range perLayer {
				if _, ok := rl.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			// The run record carries the end-to-end metrics too.
			recs, _ := filepath.Glob(filepath.Join(cfg.out, name+"-seed3-*.json"))
			if len(recs) != 1 {
				t.Fatalf("run records %v", recs)
			}
			rf, err := readRunFile(recs[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if v, ok := rf.Metrics[d.name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v)", d.name, v.Value, ok)
				}
			}
			if rf.Fingerprint.NProc < 1 || rf.Fingerprint.Go == "" {
				t.Errorf("fingerprint %+v", rf.Fingerprint)
			}
			f, err := os.Open(filepath.Join(cfg.out, "trace-"+name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			steps := map[string]bool{}
			for sc.Scan() {
				var s struct {
					Step string `json:"step"`
				}
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatal(err)
				}
				steps[s.Step] = true
			}
			for _, want := range []string{"peel.L1", "peel.L5"} {
				if !steps[want] {
					t.Errorf("span file has no %s spans (steps %v)", want, steps)
				}
			}
		})
	}
}
