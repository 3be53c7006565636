package stream

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
)

// TestGoldenIncrementalMine pins the incremental miner's end-to-end output
// on the mine-drift shape: 20k documents of datagen.DriftStream (seed 3)
// through 16-document AddBatch calls with BatchSize 256, a 64-template
// cap, TTL 50000, merge and incremental mining on. Three FNV-1a hashes
// cover the verdict every call returned, every document's final
// Assignment, and the Save bytes; the verdict and final values were
// computed before the miner moved off Go maps, so any change to phrase
// identity, DF counting, selection, clustering or window bookkeeping
// fails here, at any worker count. The save value was re-pinned when the
// state gained its verdict column (version 3): the same state re-encoded
// in the version-2 layout (no verdicts, next_id = column length) hashes
// to the version-2 pin, 0x47703060fdfec339. It was re-pinned again for
// the word table and varint blobs (version 4): this state, decoded and
// re-encoded in the version-3 layout (per-token words and wild flags,
// JSON-number verdicts), hashes to the version-3 pin,
// 0x84943da11f269323.
//
// All three were re-pinned when the miner moved onto the batch
// extractor's selection rule (tfidf.Selector), whose score ties break by
// the phrases' lexicographic token order instead of (position, length,
// hash); the former pins were (0x8aef4b26b23c595b, 0x44fd9c3f68f16bab,
// 0x640c409414e3e16e). On TestIncrementalDriftQuality's setup the change
// raised F1 for seeds 1/2/3 from 0.939/0.957/0.908 to 0.970/0.989/0.960
// and ARI from 0.941/0.959/0.902 to 0.967/0.986/0.957, at precision 1.
func TestGoldenIncrementalMine(t *testing.T) {
	const (
		wantVerdicts = 0x55416f36dd10c2f8
		wantFinal    = 0x66eaeb74e62daea7
		wantSave     = 0x8cd7133ea68c10c
		nDocs, call  = 20000, 16
	)
	docs := datagen.NewDriftStream(datagen.DriftConfig{Seed: 3}).Docs(0, nDocs)
	for _, workers := range []int{1, 2, 4} {
		d := New(core.Options{Workers: workers})
		d.BatchSize = 256
		d.Lifecycle = Lifecycle{MaxTemplates: 64, TTL: 50000, Merge: true, Incremental: true}
		verdicts := fnv.New64a()
		var b []byte
		for lo := 0; lo < nDocs; lo += call {
			for _, id := range d.AddBatch(docs[lo : lo+call]) {
				b = appendAssignment(b[:0], id, d.Assignment(id))
				_, _ = verdicts.Write(b)
			}
		}
		final := fnv.New64a()
		for id := 0; id < nDocs; id++ {
			b = appendAssignment(b[:0], id, d.Assignment(id))
			_, _ = final.Write(b)
		}
		var state bytes.Buffer
		if err := d.Save(&state); err != nil {
			t.Fatal(err)
		}
		save := fnv.New64a()
		_, _ = save.Write(state.Bytes())
		got := [3]uint64{verdicts.Sum64(), final.Sum64(), save.Sum64()}
		want := [3]uint64{wantVerdicts, wantFinal, wantSave}
		if got != want {
			t.Errorf("workers=%d: (verdicts, final, save) hashes %s, want %s (%d templates, %d live)",
				workers, hexes(got), hexes(want), d.NumTemplates(), d.NumLive())
		}
	}
}

// appendAssignment renders one document's verdict as "id:template:pending,".
func appendAssignment(b []byte, id int, a Assignment) []byte {
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(a.Template), 10)
	b = append(b, ':')
	b = strconv.AppendBool(b, a.Pending)
	return append(b, ',')
}

func hexes(h [3]uint64) string { return fmt.Sprintf("(%#x, %#x, %#x)", h[0], h[1], h[2]) }
