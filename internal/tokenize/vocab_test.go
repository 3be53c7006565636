package tokenize

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// refVocab is the reference the open-addressing vocabulary is checked
// against: a map from word to id plus the words in id order.
type refVocab struct {
	ids   map[string]int
	words []string
}

func (r *refVocab) add(w string) int {
	if id, ok := r.ids[w]; ok {
		return id
	}
	if r.ids == nil {
		r.ids = make(map[string]int)
	}
	r.ids[w] = len(r.words)
	r.words = append(r.words, w)
	return len(r.words) - 1
}

// checkAgainst compares every id, Word, ID, Size and Decode of v with
// the reference, plus ID of absent probes.
func (r *refVocab) checkAgainst(t testing.TB, v *Vocab, absent ...string) {
	t.Helper()
	if v.Size() != len(r.words) {
		t.Fatalf("Size = %d, want %d", v.Size(), len(r.words))
	}
	ids := make([]int, len(r.words))
	for id, w := range r.words {
		if got := v.Word(id); got != w {
			t.Fatalf("Word(%d) = %q, want %q", id, got, w)
		}
		if got, ok := v.ID(w); !ok || got != id {
			t.Fatalf("ID(%q) = %d,%v, want %d", w, got, ok, id)
		}
		ids[id] = id
	}
	for i, w := range v.Decode(ids) {
		if w != r.words[i] {
			t.Fatalf("Decode[%d] = %q, want %q", i, w, r.words[i])
		}
	}
	for _, w := range absent {
		if _, known := r.ids[w]; known {
			continue
		}
		if id, ok := v.ID(w); ok {
			t.Fatalf("ID(%q) = %d for an absent word", w, id)
		}
	}
}

// randomWord draws from a mix that stresses the arena and the probe:
// the empty string, words sharing long prefixes, multi-byte UTF-8 and
// short random ASCII.
func randomWord(rng *rand.Rand) string {
	switch rng.Intn(6) {
	case 0:
		return ""
	case 1:
		return strings.Repeat("ab", rng.Intn(6)) + strconv.Itoa(rng.Intn(50))
	case 2:
		return []string{"ü", "über", "地", "地震", "😀", "naïve", "ß"}[rng.Intn(7)] + strconv.Itoa(rng.Intn(300))
	default:
		b := make([]byte, 1+rng.Intn(10))
		for i := range b {
			b[i] = 'a' + byte(rng.Intn(4))
		}
		return string(b)
	}
}

// TestVocabMatchesMapReference grows vocabularies through several table
// doublings, from empty and after Reserve, and checks them against the
// map reference.
func TestVocabMatchesMapReference(t *testing.T) {
	for _, tc := range []struct {
		name         string
		words, bytes int // Reserve hint; 0, 0 skips Reserve
	}{
		{"empty", 0, 0},
		{"reserved", 100, 400},
		{"underreserved", 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			v, ref := NewVocab(), &refVocab{}
			if tc.words > 0 {
				v.Reserve(tc.words, tc.bytes)
			}
			for i := 0; i < 20000; i++ {
				w := randomWord(rng)
				if got, want := v.Add(w), ref.add(w); got != want {
					t.Fatalf("Add(%q) = %d, want %d", w, got, want)
				}
				if i%2500 == 0 {
					ref.checkAgainst(t, v, randomWord(rng), "zzz-absent")
				}
			}
			if v.Size() < 1000 {
				t.Fatalf("only %d distinct words: too few doublings", v.Size())
			}
			ref.checkAgainst(t, v, "zzz-absent")
			// Encode agrees with Add, and Reserve on a non-empty
			// vocabulary changes nothing.
			v.Reserve(1<<20, 1<<20)
			toks := append([]string{"", "ab", "地震1"}, ref.words[:50]...)
			for i, id := range v.Encode(toks) {
				if want := ref.add(toks[i]); id != want {
					t.Fatalf("Encode[%d] %q = %d, want %d", i, toks[i], id, want)
				}
			}
			ref.checkAgainst(t, v)
		})
	}
}

// TestVocabWordSurvivesGrowth pins the append-only invariant: a string
// Word returned before the arena regrew still reads the same word.
func TestVocabWordSurvivesGrowth(t *testing.T) {
	v := NewVocab()
	v.Add("first")
	w := v.Word(0)
	for i := 0; i < 10000; i++ {
		v.Add("filler" + strconv.Itoa(i))
	}
	runtime.GC()
	if w != "first" || v.Word(0) != "first" {
		t.Fatalf("Word(0) = %q after growth, earlier string reads %q", v.Word(0), w)
	}
}

// TestVocabViewWhileWriting reads a copy of the Vocab value from another
// goroutine while the writer keeps adding words: the copy's Word must
// keep spelling its ids (run under -race, the accesses must not race).
func TestVocabViewWhileWriting(t *testing.T) {
	v := NewVocab()
	for i := 0; i < 1000; i++ {
		v.Add("w" + strconv.Itoa(i))
	}
	view := *v
	done := make(chan struct{})
	go func() {
		defer close(done)
		for pass := 0; pass < 20; pass++ {
			for id := 0; id < view.Size(); id++ {
				if got, want := view.Word(id), "w"+strconv.Itoa(id); got != want {
					t.Errorf("view Word(%d) = %q, want %q", id, got, want)
					return
				}
			}
		}
	}()
	for i := 1000; i < 50000; i++ {
		v.Add("w" + strconv.Itoa(i))
	}
	<-done
}

// wordWithHome returns the first candidate word, not in skip, whose home
// slot in v's current table is home.
func wordWithHome(t *testing.T, v *Vocab, home uint64, skip map[string]bool) string {
	t.Helper()
	mask := uint64(len(v.table) - 1)
	for i := 0; i < 1<<16; i++ {
		w := fmt.Sprintf("plant%d", i)
		if !skip[w] && v.tag(w)&mask == home {
			skip[w] = true
			return w
		}
	}
	t.Fatalf("no candidate word with home slot %d", home)
	return ""
}

// TestVocabProbeWrapsTableEnd plants words whose home is the table's last
// slot, so their probe run wraps to slots 0 and 1 and pushes a home-0
// word to slot 2; every word must stay findable, an absent word homed at
// the end must probe through the wrap to an empty slot, and a tag hit on
// a different word must fall through to the string compare.
func TestVocabProbeWrapsTableEnd(t *testing.T) {
	v := NewVocab()
	v.Reserve(4, 0) // 8 slots; a 5th word doubles the table
	last := uint64(len(v.table) - 1)
	skip := map[string]bool{}
	words := []string{
		wordWithHome(t, v, last, skip),
		wordWithHome(t, v, last, skip),
		wordWithHome(t, v, last, skip),
		wordWithHome(t, v, 0, skip),
	}
	for id, w := range words {
		if got := v.Add(w); got != id {
			t.Fatalf("Add(%q) = %d, want %d", w, got, id)
		}
	}
	for id, slot := range []uint64{last, 0, 1, 2} {
		if s := v.table[slot]; s == 0 || int(uint32(s))-1 != id {
			t.Fatalf("slot %d holds %#x, want id %d", slot, s, id)
		}
	}
	absent := wordWithHome(t, v, last, skip)
	if _, ok := v.ID(absent); ok {
		t.Fatalf("absent %q found", absent)
	}
	ref := &refVocab{}
	for _, w := range words {
		ref.add(w)
	}
	ref.checkAgainst(t, v, absent)

	// A slot whose tag matches but whose id spells another word: plant
	// absent's tag with id 0 in slot 3, where absent's probe ends.
	v.table[3] = v.tag(absent)<<32 | 1
	if _, ok := v.ID(absent); ok {
		t.Fatalf("tag hit on %q matched another word", words[0])
	}
	v.table[3] = 0

	// Doubling re-places the wrapped run from the tags alone.
	if got := v.Add(absent); got != 4 {
		t.Fatalf("Add(%q) = %d, want 4", absent, got)
	}
	if len(v.table) != 16 {
		t.Fatalf("table has %d slots after the 5th word, want 16", len(v.table))
	}
	ref.add(absent)
	ref.checkAgainst(t, v)
}

// TestVocabLimits checks the two 32-bit limits at their edges without
// filling them.
func TestVocabLimits(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	checkRoom(maxID, 0, 1)
	checkRoom(0, math.MaxUint32-1, 1)
	mustPanic("id past 2³²−2", func() { checkRoom(maxID+1, 0, 1) })
	mustPanic("text past 4 GiB", func() { checkRoom(0, math.MaxUint32, 1) })
}

// FuzzVocab feeds arbitrary word sequences (NUL-separated) to a
// vocabulary, optionally reserved first, and checks it against the map
// reference.
func FuzzVocab(f *testing.F) {
	f.Add([]byte("a\x00b\x00a\x00\x00ab\x00abc\x00地震\x00über"), uint8(0))
	f.Add([]byte("x\x00x\x00x"), uint8(3))
	f.Add([]byte("\x00\x00\xff\xfe\x00\xc3\x28"), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, reserve uint8) {
		v, ref := NewVocab(), &refVocab{}
		if reserve > 0 {
			v.Reserve(int(reserve), int(reserve)*4)
		}
		for _, w := range strings.Split(string(data), "\x00") {
			if got, want := v.Add(w), ref.add(w); got != want {
				t.Fatalf("Add(%q) = %d, want %d", w, got, want)
			}
		}
		ref.checkAgainst(t, v, "absent\x00word")
	})
}

// vocabSink keeps the benchmarked vocabulary reachable until its live
// bytes are measured.
var vocabSink *Vocab

// BenchmarkVocabEncode grows a vocabulary the way a serving daemon does:
// each iteration tokenizes and encodes one document. Seven in eight are
// campaign documents, 16 words from a 4,096-word bank plus 2 fillers
// drawn from a 1M space; one in eight is noise, 18 words drawn from a
// 100M space. Documents are generated and tokenized off the clock, in
// chunks, and dropped after encoding, so what stays live is what the
// vocabulary keeps. ns/word is encode time per token; live-B/word is
// the heap live after GC per distinct interned word.
func BenchmarkVocabEncode(b *testing.B) {
	const chunk = 1024
	rng := rand.New(rand.NewSource(1))
	var tk Tokenizer
	docs := make([][]string, 0, chunk)
	var buf []byte
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	v := NewVocab()
	words := 0
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		docs = docs[:0]
		for len(docs) < min(chunk, b.N-done) {
			buf = buf[:0]
			if rng.Intn(8) == 0 {
				for k := 0; k < 18; k++ {
					buf = append(strconv.AppendInt(append(buf, 'n'), int64(rng.Intn(100_000_000)), 10), ' ')
				}
			} else {
				for k := 0; k < 16; k++ {
					buf = append(strconv.AppendInt(append(buf, "bank"...), int64(rng.Intn(4096)), 10), ' ')
				}
				for k := 0; k < 2; k++ {
					buf = append(strconv.AppendInt(append(buf, "fill"...), int64(rng.Intn(1_000_000)), 10), ' ')
				}
			}
			docs = append(docs, tk.Tokens(string(buf)))
		}
		b.StartTimer()
		for _, toks := range docs {
			v.Encode(toks)
			words += len(toks)
		}
		done += len(docs)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word")
	docs = nil
	vocabSink = v
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(v.Size()), "live-B/word")
	vocabSink = nil
}
