package align

// WildBitCap is the longest reference (constants + slots) the single-word
// bit-parallel wildcard distance handles: one template position per bit of
// a uint64. Templates are mined from documents and usually sit well under
// this; a longer reference has no distance to seed WildBounder.Cost's band
// with, so its alignment is the full fill.
const WildBitCap = 64

// WildEqMasks builds the match-mask table for a wildcard reference:
// wildMask has bit i set when position i is a slot (matches any token),
// eqToks lists the distinct constant token ids ascending, and eqMasks[k]
// has bit i set when position i holds constant eqToks[k]. A document token
// c therefore matches reference position i iff bit i is set in
// wildMask | eqMasks[index of c], which is the Eq vector the bit-parallel
// recurrence consumes. A nil wild means no slots, as in
// PairwiseWildScratch. len(ref) must be at most WildBitCap.
//
// The streaming detector precomputes this table once per template at
// registration (into arenas); this allocating form serves tests and
// callers without a pooling story.
func WildEqMasks(ref []int, wild []bool) (wildMask uint64, eqToks []int32, eqMasks []uint64) {
	for i, tok := range ref {
		if wild != nil && wild[i] {
			wildMask |= 1 << uint(i)
			continue
		}
		k := maskIdx(eqToks, tok)
		if k < len(eqToks) && eqToks[k] == int32(tok) {
			eqMasks[k] |= 1 << uint(i)
			continue
		}
		eqToks = append(eqToks, 0)
		eqMasks = append(eqMasks, 0)
		copy(eqToks[k+1:], eqToks[k:])
		copy(eqMasks[k+1:], eqMasks[k:])
		eqToks[k] = int32(tok)
		eqMasks[k] = 1 << uint(i)
	}
	return wildMask, eqToks, eqMasks
}

// maskIdx returns the insertion index of tok in the ascending eqToks —
// binary search kept loop-only so the probe hot path stays inline-friendly.
func maskIdx(eqToks []int32, tok int) int {
	lo, hi := 0, len(eqToks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(eqToks[mid]) < tok {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WildDistanceMasked returns the unit-cost global alignment distance
// between a wildcard reference of length n — described by the mask table
// from WildEqMasks — and doc, in O(len(doc)) word operations and zero
// allocations. The value equals PairwiseWildScratch(ref, wild, doc,
// sc).Distance() exactly: wildcard positions cost 0 against any token, everything else is
// unit-cost Levenshtein.
//
// This is Myers' bit-parallel scheme in Hyyrö's global-distance form: the
// score register tracks cell D[n][j] while vertical delta vectors Pv/Mv
// (+1/−1 down column j) advance one document token per iteration. Two
// deviations from the search variant matter: the horizontal positive
// vector shifts in a 1 (the first row of the global DP is D[0][j] = j, so
// the boundary delta is always +1), and the score updates from the
// horizontal deltas at row n before the shift. Wildcards need no extra
// machinery — they are just rows whose Eq bit is set for every column,
// which the recurrence turns into free diagonal moves.
func WildDistanceMasked(n int, wildMask uint64, eqToks []int32, eqMasks []uint64, doc []int) int {
	if n == 0 {
		return len(doc) // insert everything
	}
	mask := ^uint64(0) >> uint(64-n)
	hb := uint64(1) << uint(n-1)
	pv, mv := mask, uint64(0)
	score := n
	for _, c := range doc {
		eq := wildMask
		if k := maskIdx(eqToks, c); k < len(eqToks) && int(eqToks[k]) == c {
			eq |= eqMasks[k]
		}
		eq &= mask
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&hb != 0 {
			score++
		} else if mh&hb != 0 {
			score--
		}
		ph = ph<<1 | 1 // global form: row-0 boundary contributes +1 every column
		mh <<= 1
		pv = (mh | ^(xv | ph)) & mask
		mv = ph & xv & mask
	}
	return score
}
