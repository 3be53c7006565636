package tfidf

import "slices"

// Hashed phrase identity and the flat phrase tables. Phrases are keyed by
// a rolling 64-bit hash over token ids, extended one token at a time so
// all MaxN n-grams starting at a position cost one multiply-add each and
// zero allocations. Hashing is NOT trusted for identity: both tables in
// this file settle equal keys by comparing the actual token sequences and
// keep colliding phrases apart, so phrase identity is exact, never
// probabilistic.

// PhraseID identifies one distinct phrase of the corpus exactly. Hash is
// the mixed rolling hash of the phrase's token-id sequence; Alt is the
// index in the corpus-wide collision chain for that hash value, which is
// 0 unless two distinct phrases happen to share all 64 hash bits.
type PhraseID struct {
	Hash uint64
	Alt  uint16
}

// hashMul is the odd multiplier of the rolling polynomial hash.
const hashMul = 0x9e3779b97f4a7c15

// extendHash rolls one token id into a polynomial prefix hash. The +1
// keeps id 0 from being absorbed (so "a" and "a a" differ for id(a)=0).
func extendHash(h uint64, id int) uint64 {
	return h*hashMul + uint64(id) + 1
}

// mix64 is the SplitMix64 finalizer, applied to the rolling hash before
// it is used as a table key or shard selector.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// hashIDs hashes a whole token-id sequence (the non-rolling reference,
// used by tests and one-off callers).
func hashIDs(ids []int) uint64 {
	var h uint64
	for _, id := range ids {
		h = extendHash(h, id)
	}
	return mix64(h)
}

// dfShards is the number of key-range shards the document-frequency
// table is split into, so the shards are counted in parallel with no
// shared state and no lock. The count is fixed (not a function of the
// worker knob) so the table layout is identical for any Workers.
const dfShards = 16

// shardOf selects the DF shard for a mixed hash by its top bits. Both
// tables pick slots by the low bits, which stay uniform within a shard.
func shardOf(h uint64) int { return int(h >> 60) }

// phraseEntry is one distinct phrase of one document.
type phraseEntry struct {
	hash uint64
	tf   int32 // term frequency in the document
	pos  int32 // start of the first occurrence
	n    int32 // phrase length in tokens
	cell int32 // the phrase's cell in DF shard shardOf(hash)
}

// occurrences is the number of 1..maxN-gram occurrences in a document of
// length l: an upper bound on its distinct phrases.
func occurrences(l, maxN int) int {
	m := min(l, maxN)
	return m*l - m*(m-1)/2
}

// docTable is a worker's reusable open-addressing table (linear probing)
// that dedupes one document's n-gram occurrences into entries. A slot
// holds an index into the entry array plus one; 0 is empty. The table is
// cleared and resized per document, so it is never larger than twice the
// longest document's occurrence count, rounded up to a power of two.
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
// entry of the same phrase gains a tf, or a new entry is appended. An
// equal key with a different token sequence probes on, so two distinct
// phrases that share a hash get separate entries.
func (t *docTable) add(ents []phraseEntry, ids []int, key uint64, pos, n int32) []phraseEntry {
	mask := uint64(len(t.slots) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = int32(len(ents) + 1)
			return append(ents, phraseEntry{hash: key, tf: 1, pos: pos, n: n})
		}
		if e := &ents[s-1]; e.hash == key && slices.Equal(ids[e.pos:e.pos+e.n], ids[pos:pos+n]) {
			e.tf++
			return ents
		}
	}
}

// addDoc appends the distinct 1..maxN-grams of one tokenized document to
// ents, in order of first occurrence (by start position, then length),
// with term frequencies and first-occurrence positions. Each n-gram costs
// one rolling-hash step and one probe; nothing is allocated beyond ents.
func (t *docTable) addDoc(ents []phraseEntry, ids []int, maxN int) []phraseEntry {
	t.reset(occurrences(len(ids), maxN))
	for i := range ids {
		var h uint64
		for n := 1; n <= maxN && i+n <= len(ids); n++ {
			h = extendHash(h, ids[i+n-1])
			ents = t.add(ents, ids, mix64(h), int32(i), int32(n))
		}
	}
	return ents
}

// Phrase is one distinct phrase of one document, as PhraseTable lists it.
type Phrase struct {
	Hash uint64 // mixed rolling hash of the token-id sequence
	TF   int32  // term frequency in the document
	Pos  int32  // start of the first occurrence
	N    int32  // length in tokens
}

// PhraseTable is the n-gram dedupe of TopPhraseIDs for callers that keep
// phrase statistics of their own (the streaming incremental miner). It
// reuses one table across documents, and equal hashes are settled by
// comparing tokens, so two different n-grams of one document that share
// all 64 hash bits stay two phrases (with equal Hash). The zero value is
// ready to use.
type PhraseTable struct {
	tab  docTable
	ents []phraseEntry
}

// AppendDoc appends the distinct 1..maxN-grams of ids to dst in order of
// first occurrence (by start position, then length) and returns dst.
func (t *PhraseTable) AppendDoc(dst []Phrase, ids []int, maxN int) []Phrase {
	t.ents = t.tab.addDoc(t.ents[:0], ids, maxN)
	for i := range t.ents {
		e := &t.ents[i]
		dst = append(dst, Phrase{Hash: e.hash, TF: e.tf, Pos: e.pos, N: e.n})
	}
	return dst
}

// dfCell is one distinct phrase of the corpus.
type dfCell struct {
	idf         float64 // log(numDocs/df), set once counting is done
	df          int32
	doc, pos, n int32  // canonical (first) occurrence
	next        int32  // next cell with the same hash; 0 ends the chain
	alt         uint16 // position in the chain: PhraseID.Alt
}

// dfTable is one DF shard: a dense open-addressing table (linear probing)
// from hash to the head of that hash's collision chain, over flat cells.
// A head holds a cell index plus one; 0 is an empty slot. Cell 0 always
// heads a chain, so next == 0 can mean "end of chain". The slot arrays
// double whenever the cells would fill more than half of them (cells
// bound the occupied slots: every head is a cell).
type dfTable struct {
	keys  []uint64
	heads []int32
	cells []dfCell
}

// newDFTable sizes a table for a shard that will count hint (document,
// phrase) pairs: hint/2 distinct phrases fit before it first grows.
func newDFTable(hint int) dfTable {
	size := 16
	for size < hint {
		size <<= 1
	}
	return dfTable{
		keys:  make([]uint64, size),
		heads: make([]int32, size),
		cells: make([]dfCell, 0, hint/2),
	}
}

// slot returns the slot holding key, or the empty slot where it belongs.
func (t *dfTable) slot(key uint64) uint64 {
	mask := uint64(len(t.heads) - 1)
	i := key & mask
	for t.heads[i] != 0 && t.keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the slot arrays and reinserts every chain head.
func (t *dfTable) grow() {
	keys, heads := t.keys, t.heads
	t.keys, t.heads = make([]uint64, 2*len(keys)), make([]int32, 2*len(heads))
	for i, h := range heads {
		if h != 0 {
			j := t.slot(keys[i])
			t.keys[j], t.heads[j] = keys[i], h
		}
	}
}

// newCell appends a cell for a phrase first seen at docs[doc][pos:pos+n].
func (t *dfTable) newCell(doc, pos, n int32, alt uint16) int32 {
	t.cells = append(t.cells, dfCell{df: 1, doc: doc, pos: pos, n: n, alt: alt})
	return int32(len(t.cells) - 1)
}

// add counts one document containing the phrase docs[doc][pos:pos+n]
// under key and returns the phrase's cell. A phrase whose key is taken by
// a different token sequence joins the end of that key's chain, so Alt
// numbers a hash's phrases in the order add first meets them.
func (t *dfTable) add(docs [][]int, key uint64, doc, pos, n int32) int32 {
	i := t.slot(key)
	if h := t.heads[i]; h != 0 {
		c := h - 1
		for {
			cl := &t.cells[c]
			if slices.Equal(docs[cl.doc][cl.pos:cl.pos+cl.n], docs[doc][pos:pos+n]) {
				cl.df++
				return c
			}
			if cl.next == 0 {
				nc := t.newCell(doc, pos, n, cl.alt+1)
				t.cells[c].next = nc
				return nc
			}
			c = cl.next
		}
	}
	if 2*(len(t.cells)+1) > len(t.heads) {
		t.grow()
		i = t.slot(key)
	}
	c := t.newCell(doc, pos, n, 0)
	t.keys[i], t.heads[i] = key, c+1
	return c
}

// find returns the cell of a phrase id, or -1 for an unknown id.
func (t *dfTable) find(id PhraseID) int32 {
	if len(t.heads) == 0 {
		return -1
	}
	c := t.heads[t.slot(id.Hash)] - 1
	for c >= 0 && t.cells[c].alt != id.Alt {
		if c = t.cells[c].next; c == 0 {
			return -1
		}
	}
	return c
}
