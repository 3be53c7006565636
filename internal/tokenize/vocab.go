package tokenize

import (
	"fmt"
	"hash/maphash"
	"math"
	"unsafe"
)

// Vocab interns token strings as dense integer ids. Ids are assigned in
// first-seen order starting from 0, so they can index slices directly.
//
// The vocabulary holds no pointers the garbage collector must trace. The
// words live back to back in one append-only byte arena (text), ends[id]
// is the arena offset where word id ends, and the index is one
// open-addressing table of uint64 slots with linear probing. A slot holds
// hashTag<<32 | id+1, where hashTag is the top 32 bits of the word's
// hash, and 0 marks an empty slot; the tag's low bits pick the home
// slot, so doubling the table re-places slots without rehashing a word.
// The table doubles before its load passes 1/2. Words are hashed with
// hash/maphash under a seed drawn per vocabulary, so crafted input cannot
// aim collisions at the probe runs; ids never depend on the seed.
//
// Limits: at most 2³²−1 words (ids up to 2³²−2, so id+1 fits a slot's
// low 32 bits) and 4 GiB of word bytes (ends are uint32 offsets). Adding
// past either panics.
//
// Word returns a string that aliases the arena. That is sound because the
// arena and ends are append-only: bytes once written are never rewritten,
// and growth copies into a fresh array, so a string handed out earlier
// stays valid and unchanged. For the same reason a copy of the Vocab
// value taken under the writer's lock is a read-only view whose Word
// stays valid for every id it held while the writer keeps adding words
// (its ID is not: the table is updated in place). Anything that compacts
// or reorders the vocabulary must build a new Vocab, never rewrite this
// one in place.
//
// Vocab is not safe for concurrent mutation; build it single-threaded (or
// behind a lock) and share it read-only afterwards.
type Vocab struct {
	seed  maphash.Seed
	table []uint64
	text  []byte
	ends  []uint32
}

// maxID is the largest id a slot can carry: id+1 must fit 32 bits.
const maxID = math.MaxUint32 - 1

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{seed: maphash.MakeSeed()}
}

// tag returns w's hash tag: the top 32 bits of its seeded hash.
func (v *Vocab) tag(w string) uint64 { return maphash.String(v.seed, w) >> 32 }

// lookup returns the slot index holding w, or the empty slot where w
// would go, and that slot's content (0 when w is absent). The table must
// be non-empty; its load stays at most 1/2, so the probe ends.
func (v *Vocab) lookup(w string, tag uint64) (int, uint64) {
	mask := uint64(len(v.table) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := v.table[i]
		if s == 0 || s>>32 == tag && v.Word(int(uint32(s))-1) == w {
			return int(i), s
		}
	}
}

// Add interns w and returns its id, assigning a fresh id on first sight.
// The word's bytes are copied into the arena, so w may alias a larger
// string (a token sliced from its document) without pinning it.
func (v *Vocab) Add(w string) int {
	tag := v.tag(w)
	var i int
	if len(v.table) > 0 {
		var s uint64
		if i, s = v.lookup(w, tag); s != 0 {
			return int(uint32(s)) - 1
		}
	}
	id := len(v.ends)
	checkRoom(id, len(v.text), len(w))
	if 2*(id+1) > len(v.table) {
		v.grow(max(8, 2*len(v.table)))
		i, _ = v.lookup(w, tag)
	}
	v.text = append(v.text, w...)
	v.ends = append(v.ends, uint32(len(v.text)))
	v.table[i] = tag<<32 | uint64(id+1)
	return id
}

// checkRoom panics when adding a word of n bytes as id, to an arena
// already holding textLen bytes, would pass the vocabulary's 32-bit
// limits.
func checkRoom(id, textLen, n int) {
	if uint64(id) > maxID {
		panic(fmt.Sprintf("tokenize: vocabulary full: id %d exceeds %d", id, uint64(maxID)))
	}
	if uint64(textLen)+uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("tokenize: vocabulary text full: %d + %d bytes exceeds 4 GiB", textLen, n))
	}
}

// grow re-places every slot into a fresh table of size slots (a power of
// two). A slot's tag carries its home index, so no word is rehashed.
func (v *Vocab) grow(size int) {
	t := make([]uint64, size)
	mask := uint64(size - 1)
	for _, s := range v.table {
		if s == 0 {
			continue
		}
		i := s >> 32 & mask
		for t[i] != 0 {
			i = (i + 1) & mask
		}
		t[i] = s
	}
	v.table = t
}

// Reserve sizes an empty vocabulary for words words of bytes bytes in
// total, so a bulk load neither doubles the table nor regrows the arena.
// Once the vocabulary holds words it is a no-op.
func (v *Vocab) Reserve(words, bytes int) {
	if len(v.ends) > 0 {
		return
	}
	size := 8
	for size < 2*words {
		size *= 2
	}
	v.table = make([]uint64, size)
	v.ends = make([]uint32, 0, words)
	v.text = make([]byte, 0, bytes)
}

// ID returns the id for w and whether w is known.
func (v *Vocab) ID(w string) (int, bool) {
	if len(v.table) == 0 {
		return 0, false
	}
	if _, s := v.lookup(w, v.tag(w)); s != 0 {
		return int(uint32(s)) - 1, true
	}
	return 0, false
}

// Word returns the string for id. It panics on out-of-range ids, matching
// slice semantics. The string aliases the append-only arena (see Vocab).
func (v *Vocab) Word(id int) string {
	end := v.ends[id]
	start := uint32(0)
	if id > 0 {
		start = v.ends[id-1]
	}
	if start == end {
		return ""
	}
	return unsafe.String(&v.text[start], end-start)
}

// Size returns the number of distinct interned tokens (the paper's V).
func (v *Vocab) Size() int { return len(v.ends) }

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
		words[i] = v.Word(id)
	}
	return words
}
