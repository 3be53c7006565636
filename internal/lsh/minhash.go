// Package lsh implements MinHash signatures with LSH banding — the
// standard near-duplicate grouping machinery behind systems like the
// Template Matching baseline of Li et al. (IEEE Big Data 2018), the first
// anti-HT clustering method the paper compares against conceptually
// (Table I). Documents whose token-shingle sets have high Jaccard
// similarity hash to the same band bucket with high probability, giving
// candidate near-duplicate groups in one pass.
package lsh

import (
	"hash/fnv"

	"infoshield/internal/graph"
	"infoshield/internal/par"
)

// MinHasher computes fixed-length MinHash signatures of token-shingle
// sets. The zero value is not usable; construct with NewMinHasher.
type MinHasher struct {
	numHashes int
	shingle   int
	// Parameters of the 64-bit universal hash family h_i(x) = a_i*x + b_i.
	a, b []uint64
}

// NewMinHasher builds a hasher with numHashes signature rows over
// shingle-token shingles. Deterministic per seed.
func NewMinHasher(numHashes, shingle int, seed uint64) *MinHasher {
	if numHashes <= 0 {
		numHashes = 128
	}
	if shingle <= 0 {
		shingle = 3
	}
	m := &MinHasher{
		numHashes: numHashes,
		shingle:   shingle,
		a:         make([]uint64, numHashes),
		b:         make([]uint64, numHashes),
	}
	// SplitMix64 stream for the hash family parameters.
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < numHashes; i++ {
		m.a[i] = next() | 1 // odd multiplier
		m.b[i] = next()
	}
	return m
}

// NumHashes returns the signature length.
func (m *MinHasher) NumHashes() int { return m.numHashes }

// shingleHashes hashes each shingle of the token sequence to a uint64.
func (m *MinHasher) shingleHashes(tokens []string) []uint64 {
	k := m.shingle
	if len(tokens) < k {
		k = len(tokens)
	}
	if k == 0 {
		return nil
	}
	out := make([]uint64, 0, len(tokens)-k+1)
	for i := 0; i+k <= len(tokens); i++ {
		h := fnv.New64a()
		for j := i; j < i+k; j++ {
			h.Write([]byte(tokens[j]))
			h.Write([]byte{0x1f})
		}
		out = append(out, h.Sum64())
	}
	return out
}

// Signature returns the MinHash signature of the document's shingle set.
// Empty documents get an all-max signature (similar to nothing).
func (m *MinHasher) Signature(tokens []string) []uint64 {
	sig := make([]uint64, m.numHashes)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, sh := range m.shingleHashes(tokens) {
		for i := 0; i < m.numHashes; i++ {
			if v := m.a[i]*sh + m.b[i]; v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// Signatures computes every document's signature across workers
// goroutines (<= 0: GOMAXPROCS). Signature computation is read-only on
// the hasher, so the result matches the serial loop exactly.
func (m *MinHasher) Signatures(docs [][]string, workers int) [][]uint64 {
	sigs := make([][]uint64, len(docs))
	par.Ranges(len(docs), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sigs[i] = m.Signature(docs[i])
		}
	})
	return sigs
}

// EstimateJaccard estimates the Jaccard similarity of two signatures.
func EstimateJaccard(a, b []uint64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// Bands groups documents whose signatures collide in any of numBands
// bands (rows = numHashes/numBands per band) and returns the connected
// components with at least two members — the LSH candidate groups — in
// ascending order of least member, members ascending.
func Bands(signatures [][]uint64, numBands int) [][]int {
	n := len(signatures)
	if n == 0 {
		return nil
	}
	if numBands <= 0 {
		numBands = 16
	}
	rows := len(signatures[0]) / numBands
	if rows == 0 {
		rows = 1
	}
	uf := graph.NewUnionFind(n)
	for band := 0; band < numBands; band++ {
		lo := band * rows
		hi := lo + rows
		if hi > len(signatures[0]) {
			break
		}
		buckets := make(map[uint64]int)
		for d, sig := range signatures {
			h := fnv.New64a()
			var buf [8]byte
			for _, v := range sig[lo:hi] {
				for i := 0; i < 8; i++ {
					buf[i] = byte(v >> (8 * i))
				}
				h.Write(buf[:])
			}
			key := h.Sum64()
			if first, ok := buckets[key]; ok {
				uf.Union(first, d)
			} else {
				buckets[key] = d
			}
		}
	}
	return uf.Components(2)
}
