package tokenize

// Vocab interns token strings as dense integer ids. Ids are assigned in
// first-seen order starting from 0, so they can index slices directly.
//
// Vocab is not safe for concurrent mutation; build it single-threaded (or
// behind a lock) and share it read-only afterwards.
type Vocab struct {
	ids   map[string]int
	words []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{ids: make(map[string]int)}
}

// Add interns w and returns its id, assigning a fresh id on first sight.
func (v *Vocab) Add(w string) int {
	if id, ok := v.ids[w]; ok {
		return id
	}
	id := len(v.words)
	v.ids[w] = id
	v.words = append(v.words, w)
	return id
}

// Reserve sizes an empty vocabulary for n words, so a bulk load does not
// rehash as it grows. Once the vocabulary holds words it is a no-op.
func (v *Vocab) Reserve(n int) {
	if len(v.words) == 0 {
		v.ids = make(map[string]int, n)
		v.words = make([]string, 0, n)
	}
}

// ID returns the id for w and whether w is known.
func (v *Vocab) ID(w string) (int, bool) {
	id, ok := v.ids[w]
	return id, ok
}

// Word returns the string for id. It panics on out-of-range ids, matching
// slice semantics.
func (v *Vocab) Word(id int) string { return v.words[id] }

// Size returns the number of distinct interned tokens (the paper's V).
func (v *Vocab) Size() int { return len(v.words) }

// Encode interns every token of toks and returns their ids.
func (v *Vocab) Encode(toks []string) []int {
	ids := make([]int, len(toks))
	for i, w := range toks {
		ids[i] = v.Add(w)
	}
	return ids
}

// Decode maps ids back to strings.
func (v *Vocab) Decode(ids []int) []string {
	words := make([]string, len(ids))
	for i, id := range ids {
		words[i] = v.words[id]
	}
	return words
}
