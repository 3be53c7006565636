package tfidf

import (
	"reflect"
	"testing"
)

// fuzzCorpus decodes a fuzz input into a small corpus over a vocabulary of
// 4 to 6 words, so phrases repeat within and across documents (tf > 1,
// df > 1) and equal scores force the lexicographic tie-break. Each byte
// is a token, or a document break when it maps past the vocabulary.
func fuzzCorpus(data []byte) [][]string {
	words := []string{"a", "b", "c", "d", "e", "f"}
	if len(data) == 0 {
		return nil
	}
	words = words[:4+int(data[0])%3]
	docs := [][]string{nil}
	for _, b := range data[1:] {
		if t := int(b) % (len(words) + 1); t < len(words) {
			docs[len(docs)-1] = append(docs[len(docs)-1], words[t])
		} else {
			docs = append(docs, nil)
		}
	}
	return docs
}

// FuzzTopPhraseIDs checks the flat-table extractor against the string-key
// reference on random small corpora, with a random worker count, phrase
// length and budget per input.
func FuzzTopPhraseIDs(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 4, 0, 1, 0, 1, 4, 2, 3}, uint8(2), uint8(4), uint8(0))
	f.Add([]byte{2, 5, 5, 5, 6, 5, 5, 6, 0, 1, 2, 3, 4}, uint8(7), uint8(1), uint8(2))
	f.Add([]byte{1, 4, 4, 0, 0, 0, 0, 0, 5, 0, 0, 0}, uint8(0), uint8(2), uint8(1))
	fracs := []float64{0.1, 0.3, 0.6}
	f.Fuzz(func(t *testing.T, data []byte, workers, maxN, frac uint8) {
		if len(data) > 512 {
			return
		}
		docs := fuzzCorpus(data)
		base := Extractor{MaxN: 1 + int(maxN)%5, TopFraction: fracs[int(frac)%len(fracs)]}
		want := referenceTopPhrases(&base, docs)
		e := base
		e.Workers = 1 + int(workers)%8
		if got := e.TopPhrases(docs); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d maxN=%d frac=%v docs=%q\n got %q\nwant %q",
				e.Workers, e.MaxN, e.TopFraction, docs, got, want)
		}
	})
}
