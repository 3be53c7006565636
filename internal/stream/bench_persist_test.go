package stream

import (
	"bytes"
	"testing"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
)

// BenchmarkPersistScale measures Save and Load of a 100k-template state
// (datagen.ScaleTemplates, seed 1 — the ingest-bulk-100k boot state).
// Beyond ns/op and B/op it reports the snapshot size per template
// (B/template), the number the state format controls.
func BenchmarkPersistScale(b *testing.B) {
	const n = 100000
	set := datagen.ScaleTemplates(datagen.ScaleConfig{Seed: 1, Templates: n})
	d := New(core.Options{})
	for _, t := range set.Templates {
		if _, err := d.Register(t.Words, t.Wild); err != nil {
			b.Fatal(err)
		}
	}
	var state bytes.Buffer
	if err := d.Save(&state); err != nil {
		b.Fatal(err)
	}
	b.Run("Save", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := d.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len())/n, "B/template")
	})
	b.Run("Load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := New(core.Options{}).Load(bytes.NewReader(state.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(state.Len())/n, "B/template")
	})
}
