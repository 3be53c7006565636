package tfidf

import (
	"slices"
	"strings"

	"infoshield/internal/tokenize"
)

// sep joins n-gram tokens into a single phrase-key string. US (unit
// separator) cannot appear in tokens, which never contain control
// characters after tokenization of ordinary text.
const sep = "\x1f"

// Key converts an n-gram token slice into its string phrase key, the form
// the reference extractor and the tests compare selections in.
func Key(tokens []string) string { return strings.Join(tokens, sep) }

// TopPhrases is the string-keyed form of TopPhraseIDs: it interns the
// documents through a private vocabulary, admits them into an empty DF
// table, and spells each selected phrase from the tokens of the document
// that selected it.
func (e *Extractor) TopPhrases(docs [][]string) [][]string {
	vocab := tokenize.NewVocab()
	ids := make([][]int, len(docs))
	for i, d := range docs {
		ids[i] = vocab.Encode(d)
	}
	sel := e.TopPhraseIDs(ids, vocab, new(HashTable), len(ids))
	var tab docTable
	var ps []Phrase
	out := make([][]string, len(docs))
	for i, top := range sel.Top {
		if len(top) == 0 {
			continue
		}
		ps = tab.addDoc(ps[:0], ids[i], e.MaxNgram())
		row := make([]string, len(top))
		for j, id := range top {
			p := ps[slices.IndexFunc(ps, func(p Phrase) bool { return p.Hash == id })]
			row[j] = Key(docs[i][p.Pos : p.Pos+p.N])
		}
		out[i] = row
	}
	return out
}
