package main

import (
	"encoding/json"
	"strings"
	"testing"

	"infoshield/internal/datagen"
)

// inlineSnapshot wraps a compacted state the way POST /v1/snapshot with
// no path returns it.
func inlineSnapshot(t *testing.T, state []byte) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"version": 2, "shards": 1, "states": []json.RawMessage{state}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckStateRejectsSwappedReplay(t *testing.T) {
	spec, ok := findSpec("mine-drift")
	if !ok {
		t.Fatal("no mine-drift spec")
	}
	docs := datagen.NewDriftStream(datagen.DriftConfig{Seed: 7}).Docs(0, 600)
	state, err := referenceState(spec, nil, 0, docs)
	if err != nil {
		t.Fatal(err)
	}
	snap := inlineSnapshot(t, state)

	o := newOutcome("t")
	checkState(o, spec, nil, 0, docs, snap)
	if len(o.checks) != 0 {
		t.Fatalf("the replay in acked order was rejected: %v", o.checks)
	}

	swapped := append([]string(nil), docs...)
	swapped[590], swapped[597] = swapped[597], swapped[590]
	o = newOutcome("t")
	checkState(o, spec, nil, 0, swapped, snap)
	if len(o.checks) != 1 || !strings.Contains(o.checks[0], "differs from the serial reference") {
		t.Fatalf("a replay with two documents swapped passed the state check: %v", o.checks)
	}
}

func TestCollectAcksDenseUniqueIDs(t *testing.T) {
	single := func(text string) request { return request{texts: []string{text}} }
	reqs := []request{single("a"), single("b"), {texts: []string{"c", "d"}}}
	for _, c := range []struct {
		name   string
		bodies []string
		fail   string
	}{
		{"dense", []string{`{"id":0,"template":-1,"pending":true}`, `{"id":1,"template":3,"pending":false}`,
			`{"docs":[{"id":2,"template":-1,"pending":true},{"id":3,"template":-1,"pending":true}]}`}, ""},
		{"duplicate", []string{`{"id":0,"template":-1,"pending":true}`, `{"id":1,"template":3,"pending":false}`,
			`{"docs":[{"id":1,"template":-1,"pending":true},{"id":3,"template":-1,"pending":true}]}`}, "duplicate"},
		{"gap", []string{`{"id":0,"template":-1,"pending":true}`, `{"id":1,"template":3,"pending":false}`,
			`{"docs":[{"id":2,"template":-1,"pending":true},{"id":4,"template":-1,"pending":true}]}`}, "not dense"},
		{"short reply", []string{`{"id":0,"template":-1,"pending":true}`, `{"id":1,"template":3,"pending":false}`,
			`{"docs":[{"id":2,"template":-1,"pending":true}]}`}, "1 verdicts for 2 documents"},
	} {
		bodies := make([][]byte, len(c.bodies))
		for i, b := range c.bodies {
			bodies[i] = []byte(b)
		}
		o := newOutcome("t")
		texts, _ := collectAcks(o, reqs, bodies)
		if c.fail == "" {
			if len(o.checks) != 0 || strings.Join(texts, "") != "abcd" {
				t.Errorf("%s: checks %v texts %v", c.name, o.checks, texts)
			}
			continue
		}
		if len(o.checks) == 0 || !strings.Contains(strings.Join(o.checks, "; "), c.fail) {
			t.Errorf("%s: checks %v, want one mentioning %q", c.name, o.checks, c.fail)
		}
	}
}
