package infoshield

import (
	"bytes"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"

	"infoshield/internal/datagen"
)

// TestGoldenTableIV pins the exact plain-text rendering of the paper's
// running example (Table IV): the product template with its slot, and
// doc #4's deletion/insertion/substitution decomposition. Any change to
// tokenization, alignment, consensus, or slot detection that alters this
// output fails loudly here.
func TestGoldenTableIV(t *testing.T) {
	res := Detect(demoCorpus(), Config{Workers: 1})
	var buf bytes.Buffer
	res.WriteText(&buf)
	out := stripANSI(buf.String())

	golden := []string{
		"T0  this is a great * and the 3 dollar price is great",
		"  #0     this is a great soap and the 5 dollar price is great",
		"  #1     this is a great chair and the 10 dollar price is great",
		"  #2     this is a great hat and the 3 dollar price is great",
		"  #3     this is great blue pen and the 3 dollar price is so good",
		"T1  i made 30k working on this job call 123-456.7890 or visit scam.com",
		"  #4     i made 30k working on this job call 123-456.7890 or visit scam.com",
		"  #5     i made 30k working on from home call 123-456.7890 or visit fraud.com",
	}
	for _, line := range golden {
		if !strings.Contains(out, line) {
			t.Errorf("golden line missing:\n  want %q\n  in:\n%s", line, out)
		}
	}
}

// TestGoldenDetectTwitter pins Detect's per-document template assignment
// on a 1000-tweet synthetic Twitter corpus (50 genuine + 50 bot accounts,
// 10 tweets each, seed 1) as an FNV-1a hash of the comma-joined template
// ids, plus the template count. Any change to phrase extraction, DF
// counting or selection that alters the end-to-end output fails here, for
// any worker count.
func TestGoldenDetectTwitter(t *testing.T) {
	const (
		wantHash      = 0xc29b0d3d321fed97
		wantTemplates = 74
	)
	c := datagen.Twitter(datagen.TwitterConfig{Seed: 1, GenuineAccounts: 50, BotAccounts: 50,
		TweetsPerAccountMin: 10, TweetsPerAccountMax: 10})
	for _, workers := range []int{1, 2, 8} {
		res := Detect(c.Texts(), Config{Workers: workers})
		h := fnv.New64a()
		var b []byte
		for _, tpl := range res.DocTemplate() {
			b = strconv.AppendInt(b[:0], int64(tpl), 10)
			b = append(b, ',')
			_, _ = h.Write(b)
		}
		if got := h.Sum64(); got != wantHash {
			t.Errorf("workers=%d: DocTemplate hash %#x, want %#x", workers, got, uint64(wantHash))
		}
		if got := res.NumTemplates(); got != wantTemplates {
			t.Errorf("workers=%d: %d templates, want %d", workers, got, wantTemplates)
		}
	}
}

// stripANSI removes color escapes so the golden text is style-agnostic.
func stripANSI(s string) string {
	var sb strings.Builder
	inEsc := false
	for _, r := range s {
		switch {
		case inEsc:
			if r == 'm' {
				inEsc = false
			}
		case r == '\x1b':
			inEsc = true
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
