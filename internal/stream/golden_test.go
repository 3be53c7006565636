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
// to the version-2 pin, 0x47703060fdfec339.
func TestGoldenIncrementalMine(t *testing.T) {
	const (
		wantVerdicts = 0x8aef4b26b23c595b
		wantFinal    = 0x44fd9c3f68f16bab
		wantSave     = 0x84943da11f269323
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
