package align

import "slices"

// Scratch holds the reusable DP buffer behind the pairwise aligners.
// InfoShield-Fine's candidate screen runs one O(l²) alignment per
// surviving neighbor per round, and the streaming matcher one per
// surviving template per probe; without a scratch each of those allocated
// a fresh (n+1)×(m+1) table. A Scratch is owned by exactly one goroutine
// at a time — the fine pass and the batched serve path thread one per
// worker — and grows monotonically to the largest table it has seen.
type Scratch struct {
	dp []int32
}

// table returns a zero-length-agnostic DP buffer with capacity for
// cells many int32 cells. Contents are garbage; callers overwrite.
func (s *Scratch) table(cells int) []int32 {
	if cap(s.dp) < cells {
		s.dp = make([]int32, cells)
	}
	return s.dp[:cells]
}

// PairwiseWildScratch is Pairwise against a reference with wildcard
// positions: ref[i] with wild[i] set matches any document token at zero
// cost (a template's slot). A nil wild means no slots, which is how
// Fine's candidate screen aligns a seed document. The DP table comes from
// the caller-owned Scratch and no edit script is materialized: the
// returned Alignment has nil Edits, and its Matches / Subs / Inss / Dels
// follow the same scores and match > sub > del > ins tie-break as the
// allocating reference aligner the package tests pin it to.
func PairwiseWildScratch(ref []int, wild []bool, doc []int, sc *Scratch) Alignment {
	return pairwise(ref, wild, doc, sc, false)
}

// pairwise is the package's one full-table global alignment: fill, then
// a traceback that prefers match, then substitution, then deletion, then
// insertion. With script set the traceback also records the edit script,
// in forward order; otherwise it only counts the operations.
func pairwise(ref []int, wild []bool, doc []int, sc *Scratch, script bool) Alignment {
	n, m := len(ref), len(doc)
	width := m + 1
	dp := fill(ref, wild, doc, sc)
	var a Alignment
	if script {
		a.Edits = make([]Edit, 0, n+m)
	}
	i, j := n, m
	for i > 0 || j > 0 {
		cur := dp[i*width+j]
		match := i > 0 && j > 0 && (ref[i-1] == doc[j-1] || wild != nil && wild[i-1])
		var e Edit
		switch {
		case match && cur == dp[(i-1)*width+j-1]:
			e = Edit{Op: Match, RefPos: i - 1, Token: doc[j-1]}
			a.Matches++
			i, j = i-1, j-1
		case i > 0 && j > 0 && !match && cur == dp[(i-1)*width+j-1]+1:
			e = Edit{Op: Sub, RefPos: i - 1, Token: doc[j-1]}
			a.Subs++
			i, j = i-1, j-1
		case i > 0 && cur == dp[(i-1)*width+j]+1:
			e = Edit{Op: Del, RefPos: i - 1}
			a.Dels++
			i--
		default: // j > 0
			e = Edit{Op: Ins, RefPos: i, Token: doc[j-1]}
			a.Inss++
			j--
		}
		if script {
			a.Edits = append(a.Edits, e)
		}
	}
	slices.Reverse(a.Edits)
	return a
}

// fill computes the (len(ref)+1)×(len(doc)+1) unit-cost DP table in sc,
// row-major: wild[i] (nil for none) makes ref[i] match any token. It is a
// function of its own so the inner loop keeps its counters in registers.
func fill(ref []int, wild []bool, doc []int, sc *Scratch) []int32 {
	n, m := len(ref), len(doc)
	width := m + 1
	dp := sc.table((n + 1) * width)
	for j := 0; j <= m; j++ {
		dp[j] = int32(j)
	}
	for i := 1; i <= n; i++ {
		row, prev := dp[i*width:(i+1)*width], dp[(i-1)*width:i*width]
		row[0] = int32(i)
		// sub is what a mismatch on the diagonal costs: nothing in a slot
		// row, which keeps the inner loop's one branch per cell.
		ri, sub := ref[i-1], int32(1)
		if wild != nil && wild[i-1] {
			sub = 0
		}
		prev, row = prev[:len(doc)+1], row[:len(doc)+1]
		for j, t := range doc { // cell (i, j+1)
			diag := prev[j]
			if ri != t {
				diag += sub
			}
			best := diag
			if v := prev[j+1] + 1; v < best { // delete ref[i-1]
				best = v
			}
			if v := row[j] + 1; v < best { // insert doc[j]
				best = v
			}
			row[j+1] = best
		}
	}
	return dp
}
