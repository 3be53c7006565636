package align

import "infoshield/internal/mdl"

// SortInts sorts a ascending in place, for callers that manage their own
// buffers (the fine pass packs the sorted token copies OverlapSorted
// merges into an arena).
func SortInts(a []int) { sortInts(a) }

// sortInts is an introsort avoiding the sort package's interface overhead
// on the short sequences documents produce: insertion sort below 24
// elements, middle-pivot quicksort above, and a heap-sort fallback once
// the recursion depth exceeds 2·⌊lg n⌋ — the classic guard that keeps
// adversarial pivot patterns (median-killer inputs) O(n log n) instead of
// quadratic.
func sortInts(a []int) {
	depth := 0
	for n := len(a); n > 0; n >>= 1 {
		depth += 2
	}
	introSortInts(a, depth)
}

func introSortInts(a []int, depth int) {
	for len(a) >= 24 {
		if depth == 0 {
			heapSortInts(a)
			return
		}
		depth--
		pivot := a[len(a)/2]
		lo, hi := 0, len(a)-1
		for lo <= hi {
			for a[lo] < pivot {
				lo++
			}
			for a[hi] > pivot {
				hi--
			}
			if lo <= hi {
				a[lo], a[hi] = a[hi], a[lo]
				lo++
				hi--
			}
		}
		// Recurse into the smaller half, loop on the larger: stack depth
		// stays O(lg n) even before the heap-sort guard triggers.
		if hi+1 < len(a)-lo {
			introSortInts(a[:hi+1], depth)
			a = a[lo:]
		} else {
			introSortInts(a[lo:], depth)
			a = a[:hi+1]
		}
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// heapSortInts is the depth-limit fallback: in-place max-heap selection.
func heapSortInts(a []int) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownInts(a, i, n)
	}
	for end := n - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDownInts(a, 0, end)
	}
}

func siftDownInts(a []int, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && a[child+1] > a[child] {
			child++
		}
		if a[root] >= a[child] {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// OverlapSorted returns the multiset intersection size of two ascending
// token slices by linear merge — the allocation-free fast path of the
// candidate screen (the profile-dominant operation on large clusters).
func OverlapSorted(a, b []int) int {
	i, j, m := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			m++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return m
}

// ConditionalLowerBound returns a lower bound on C(doc|ref) computable in
// O(len(doc)) — without running the O(len²) alignment DP. Derivation: any
// alignment has at most `overlap` matches, so at least
// max(refLen,docLen)-overlap unmatched operations and at least
// docLen-overlap vocabulary-indexed words, over an alignment of length at
// least max(refLen,docLen); every term of the Eq. 3 cost is monotone in
// these quantities.
//
// InfoShield-Fine uses this to skip the full alignment for documents that
// cannot possibly pass the C(d|d1) < C(d) candidate test — the common case
// inside large, mostly heterogeneous coarse clusters.
func ConditionalLowerBound(refLen, docLen, overlap, vocabSize int) float64 {
	alignLen := refLen
	if docLen > alignLen {
		alignLen = docLen
	}
	unmatched := alignLen - overlap
	if unmatched < 0 {
		unmatched = 0
	}
	added := docLen - overlap
	if added < 0 {
		added = 0
	}
	return mdl.DataCostMatched(mdl.AlignStats{
		AlignLen:   alignLen,
		Unmatched:  unmatched,
		AddedWords: added,
	}, 1, vocabSize)
}
