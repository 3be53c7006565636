package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"infoshield/internal/serve"
)

// collectAcks parses every write reply, checks that each carries one
// verdict per document and that the ids over the whole run are dense and
// unique, and returns the acknowledged texts indexed by id. It returns a
// nil slice when the ids cannot be ordered, and the number of malformed
// replies.
func collectAcks(o *outcome, reqs []request, bodies [][]byte) (texts []string, malformed int) {
	byID := map[int]string{}
	dups := 0
	for i, r := range reqs {
		if bodies[i] == nil {
			continue // the request failed in transport and is already counted
		}
		vs, err := parseVerdicts(bodies[i], len(r.texts))
		if err != nil {
			malformed++
			if malformed <= 3 {
				o.fail("reply %d: %v", i, err)
			}
			continue
		}
		for j, v := range vs {
			if _, dup := byID[v.ID]; dup {
				dups++
			}
			byID[v.ID] = r.texts[j]
		}
	}
	if dups > 0 {
		o.fail("%d duplicate document ids in replies", dups)
		return nil, malformed
	}
	texts = make([]string, len(byID))
	for id, t := range byID {
		if id < 0 || id >= len(texts) {
			o.fail("document ids are not dense: id %d among %d acknowledged documents", id, len(texts))
			return nil, malformed
		}
		texts[id] = t
	}
	return texts, malformed
}

// parseVerdicts decodes a POST /v1/docs reply for a request of n
// documents: a bare verdict for one document, {"docs": [...]} otherwise.
func parseVerdicts(body []byte, n int) ([]serve.Verdict, error) {
	if n == 1 {
		var v serve.Verdict
		if err := strictUnmarshal(body, &v); err != nil {
			return nil, err
		}
		return []serve.Verdict{v}, nil
	}
	var r struct {
		Docs []serve.Verdict `json:"docs"`
	}
	if err := strictUnmarshal(body, &r); err != nil {
		return nil, err
	}
	if len(r.Docs) != n {
		return nil, fmt.Errorf("%d verdicts for %d documents", len(r.Docs), n)
	}
	return r.Docs, nil
}

func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed reply %q: %w", truncate(b), err)
	}
	return nil
}

func truncate(b []byte) string {
	if len(b) > 120 {
		return string(b[:120]) + "..."
	}
	return string(b)
}

// snapshotState returns the compacted shard state a POST /v1/snapshot
// reply describes: inline when the daemon has no -state, otherwise in the
// shard file the manifest written to the reply's path names.
func snapshotState(reply []byte) ([]byte, error) {
	var r struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(reply, &r); err != nil {
		return nil, fmt.Errorf("decode snapshot reply: %w", err)
	}
	if r.Path == "" {
		return inlineState(reply)
	}
	b, err := os.ReadFile(r.Path)
	if err != nil {
		return nil, err
	}
	var m struct {
		Files []string `json:"files"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("decode snapshot manifest %s: %w", r.Path, err)
	}
	if len(m.Files) != 1 {
		return nil, fmt.Errorf("snapshot manifest %s names %d shard files, want 1", r.Path, len(m.Files))
	}
	if b, err = os.ReadFile(filepath.Join(filepath.Dir(r.Path), m.Files[0])); err != nil {
		return nil, err
	}
	return compactJSON(b)
}

// inlineState extracts the single shard state from a streamed snapshot
// manifest (POST /v1/snapshot with no path, or Sharded.SnapshotTo),
// compacted so it compares byte for byte with a compacted Save.
func inlineState(manifest []byte) ([]byte, error) {
	var m struct {
		States []json.RawMessage `json:"states"`
	}
	if err := json.Unmarshal(manifest, &m); err != nil {
		return nil, fmt.Errorf("decode snapshot manifest: %w", err)
	}
	if len(m.States) != 1 {
		return nil, fmt.Errorf("snapshot manifest carries %d shard states, want 1", len(m.States))
	}
	return compactJSON(m.States[0])
}

func compactJSON(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// referenceState replays the acknowledged documents, in id order, into a
// serial stream.Detector configured like the daemon and started from the
// same boot state (nil: an empty detector), flushing after the first
// flushAfter documents (the seed flush) and once more at the end, as the
// snapshot does. It returns the compacted Save bytes.
func referenceState(spec daemonSpec, bootState []byte, flushAfter int, texts []string) ([]byte, error) {
	ref := spec.newDetector()
	if bootState != nil {
		if err := ref.Load(bytes.NewReader(bootState)); err != nil {
			return nil, err
		}
	}
	base := ref.NextID()
	for i, t := range texts {
		if id := ref.Add(t); id != base+i {
			return nil, fmt.Errorf("reference assigned id %d to document %d", id, base+i)
		}
		if i+1 == flushAfter {
			ref.Flush()
		}
	}
	ref.Flush()
	var buf bytes.Buffer
	if err := ref.Save(&buf); err != nil {
		return nil, err
	}
	return compactJSON(buf.Bytes())
}

// checkState byte-compares the daemon's snapshot with the serial
// reference replay.
func checkState(o *outcome, spec daemonSpec, bootState []byte, flushAfter int, texts []string, snapshot []byte) {
	got, err := snapshotState(snapshot)
	if err != nil {
		o.fail("snapshot: %v", err)
		return
	}
	want, err := referenceState(spec, bootState, flushAfter, texts)
	if err != nil {
		o.fail("reference replay: %v", err)
		return
	}
	if !bytes.Equal(got, want) {
		o.fail("daemon state differs from the serial reference after %d documents: %s",
			len(texts), firstDiff(got, want))
		return
	}
	o.logf("check: %d acknowledged documents; daemon state equals the serial reference (%d bytes)",
		len(texts), len(got))
}

func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-40, 0)
	clip := func(x []byte) string {
		return strings.ToValidUTF8(string(x[lo:min(i+40, len(x))]), "?")
	}
	return fmt.Sprintf("first difference at byte %d: daemon %q vs reference %q", i, clip(a), clip(b))
}
