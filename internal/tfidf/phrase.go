package tfidf

import (
	"slices"

	"infoshield/internal/graph"
)

// The phrase substrate of TopPhraseIDs: hashed phrase identity, the
// per-document dedupe and the document-frequency table. A phrase is
// keyed by a rolling 64-bit hash over its token ids, extended one token
// at a time, so all MaxN n-grams starting at a position cost one
// multiply-add each and zero allocations.
//
// Across documents the hash is the phrase identity: the DF table keys on
// it alone, so two distinct phrases sharing all 64 bits would merge their
// document frequencies. A merge only over-connects a coarse component; it
// never corrupts state. On the Twitter corpus the hash count equals the
// exact string count (TestSelectionTablesMatchMapCount). Within one
// document the dedupe compares tokens, so two different n-grams there
// that share a hash stay two phrases with one hash (both counted, both
// selectable).

// PhraseID identifies a phrase across documents: the mixed rolling hash
// of its token-id sequence.
type PhraseID = uint64

// hashMul is the odd multiplier of the rolling polynomial hash.
const hashMul = 0x9e3779b97f4a7c15

// extendHash rolls one token id into a polynomial prefix hash. The +1
// keeps id 0 from being absorbed (so "a" and "a a" differ for id(a)=0).
func extendHash(h uint64, id int) uint64 {
	return h*hashMul + uint64(id) + 1
}

// mix64 is the SplitMix64 finalizer, applied to the rolling hash before
// it is used as a table key.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Phrase is one distinct phrase of one document.
type Phrase struct {
	Hash uint64 // mixed rolling hash of the token-id sequence
	TF   int32  // term frequency in the document
	Pos  int32  // start of the first occurrence
	N    int32  // length in tokens
}

// occurrences is the number of 1..maxN-gram occurrences in a document of
// length l: an upper bound on its distinct phrases.
func occurrences(l, maxN int) int {
	m := min(l, maxN)
	return m*l - m*(m-1)/2
}

// docTable is a reusable open-addressing table (linear probing) that
// dedupes one document's n-gram occurrences into phrases. A slot holds an
// index into the phrase array plus one; 0 is empty. The table is cleared
// and resized per document, so it is never larger than twice the longest
// document's occurrence count, rounded up to a power of two.
type docTable struct {
	slots []int32
}

// reset empties the table for a document of occ n-gram occurrences.
func (t *docTable) reset(occ int) {
	size := 16
	for size < 2*occ {
		size <<= 1
	}
	if cap(t.slots) < size {
		t.slots = make([]int32, size)
		return
	}
	t.slots = t.slots[:size]
	clear(t.slots)
}

// add counts one occurrence of the n-gram ids[pos:pos+n] under key: the
// phrase of the same tokens gains a tf, or a new phrase is appended. An
// equal key with a different token sequence probes on, so two distinct
// phrases that share a hash get separate entries.
func (t *docTable) add(ps []Phrase, ids []int, key uint64, pos, n int32) []Phrase {
	mask := uint64(len(t.slots) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = int32(len(ps) + 1)
			return append(ps, Phrase{Hash: key, TF: 1, Pos: pos, N: n})
		}
		if p := &ps[s-1]; p.Hash == key && slices.Equal(ids[p.Pos:p.Pos+p.N], ids[pos:pos+n]) {
			p.TF++
			return ps
		}
	}
}

// addDoc appends the distinct 1..maxN-grams of one tokenized document to
// ps, in order of first occurrence (by start position, then length),
// with term frequencies and first-occurrence positions. Each n-gram costs
// one rolling-hash step and one probe; nothing is allocated beyond ps.
func (t *docTable) addDoc(ps []Phrase, ids []int, maxN int) []Phrase {
	t.reset(occurrences(len(ids), maxN))
	for i := range ids {
		var h uint64
		for n := 1; n <= maxN && i+n <= len(ids); n++ {
			h = extendHash(h, ids[i+n-1])
			ps = t.add(ps, ids, mix64(h), int32(i), int32(n))
		}
	}
	return ps
}

// HashTable is a dense open-addressing table from a 64-bit phrase hash to
// a nonzero int32 (linear probing; value 0 marks an empty slot). It is
// the document-frequency table TopPhraseIDs counts into. It stays at most
// half full, doubling as it grows, and Dec deletes by backward shift, so
// lookups never step over tombstones and a sliding window's table never
// needs a rebuild. The zero value is an empty table; Get is safe for
// concurrent readers while nothing writes.
type HashTable struct {
	keys []uint64
	vals []int32
	n    int // occupied slots
}

// Len returns the number of keys in the table.
func (t *HashTable) Len() int { return t.n }

// slot returns the slot holding key, or the empty slot where it belongs.
func (t *HashTable) slot(key uint64) uint64 {
	mask := uint64(len(t.keys) - 1)
	i := key & mask
	for t.vals[i] != 0 && t.keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// Get returns the value under key, or 0 for an absent key.
func (t *HashTable) Get(key uint64) int32 {
	if t.n == 0 {
		return 0
	}
	return t.vals[t.slot(key)]
}

// reserve grows the table if one more key would fill over half of it.
func (t *HashTable) reserve() {
	if 2*(t.n+1) <= len(t.keys) {
		return
	}
	keys, vals := t.keys, t.vals
	size := max(16, 2*len(keys))
	t.keys, t.vals = make([]uint64, size), make([]int32, size)
	for i, v := range vals {
		if v != 0 {
			j := t.slot(keys[i])
			t.keys[j], t.vals[j] = keys[i], v
		}
	}
}

// Inc adds one to key's count.
func (t *HashTable) Inc(key uint64) {
	t.reserve()
	i := t.slot(key)
	if t.vals[i] == 0 {
		t.keys[i] = key
		t.n++
	}
	t.vals[i]++
}

// Dec subtracts one from key's count, which must be positive. A count
// that reaches zero leaves the table: each later entry of the probe run
// whose home slot is not cyclically within (hole, entry] moves back into
// the hole, which then continues from the moved entry's slot, until an
// empty slot ends the run.
func (t *HashTable) Dec(key uint64) {
	var i uint64
	if t.n > 0 {
		i = t.slot(key)
	}
	if t.n == 0 || t.vals[i] == 0 {
		panic("tfidf: DF decrement of an uncounted phrase")
	}
	if t.vals[i]--; t.vals[i] > 0 {
		return
	}
	t.n--
	mask := uint64(len(t.keys) - 1)
	for j := (i + 1) & mask; t.vals[j] != 0; j = (j + 1) & mask {
		if home := t.keys[j] & mask; (j-home)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.vals[i] = 0
}

// Insert stores v (nonzero) under key and returns 0 if key is absent;
// otherwise it leaves the table unchanged and returns key's value.
func (t *HashTable) Insert(key uint64, v int32) int32 {
	t.reserve()
	i := t.slot(key)
	if old := t.vals[i]; old != 0 {
		return old
	}
	t.keys[i], t.vals[i] = key, v
	t.n++
	return 0
}

// Reset empties the table, keeping its size.
func (t *HashTable) Reset() {
	clear(t.vals)
	t.n = 0
}

// Components returns the connected components of the document–phrase
// graph in which document d holds the phrases sels[d] (Algorithm 1's
// last step), keeping those with at least minSize documents: components
// in ascending order of least member, members ascending. Phrase nodes are
// never built. anchor is Reset, then maps each phrase to its first holder,
// and every later holder unions with that anchor, which yields the same
// components as the explicit bipartite graph in O(E α(N)). Batch Coarse
// and the streaming miner both call it; the miner reuses one anchor
// table across flushes.
func Components(sels [][]PhraseID, minSize int, anchor *HashTable) [][]int {
	uf := graph.NewUnionFind(len(sels))
	anchor.Reset()
	for d, sel := range sels {
		for _, p := range sel {
			if a := anchor.Insert(p, int32(d+1)); a != 0 {
				uf.Union(int(a-1), d)
			}
		}
	}
	return uf.Components(minSize)
}
