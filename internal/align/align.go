// Package align provides token-level sequence alignment: the pairwise
// Needleman–Wunsch aligner used by InfoShield-Fine's candidate selection
// (the C(d|d1) < C(d) test), the multiple-sequence-alignment matrix type
// shared with the POA aligner, and a cheap star-MSA alternative that
// demonstrates Fine is MSA-agnostic.
//
// Sequences are vocabulary token ids (see internal/tokenize). The gap
// marker is Gap (-1), which is never a valid token id.
package align

import "infoshield/internal/mdl"

// Gap marks a missing token in an alignment row or column.
const Gap = -1

// Op is an edit operation type relative to a reference sequence.
type Op int8

// Edit operations. Match is included so an edit script can describe the
// whole alignment, not just the differences.
const (
	Match Op = iota
	Sub
	Ins
	Del
)

// String returns the conventional one-letter code (M, S, I, D).
func (o Op) String() string {
	switch o {
	case Match:
		return "M"
	case Sub:
		return "S"
	case Ins:
		return "I"
	case Del:
		return "D"
	}
	return "?"
}

// Edit is one step of an alignment between a reference and a document.
type Edit struct {
	Op Op
	// RefPos is the reference index (valid for Match, Sub, Del).
	// For Ins it is the reference position the token is inserted before.
	RefPos int
	// Token is the document token (valid for Match, Sub, Ins).
	Token int
}

// Alignment is the result of a pairwise alignment.
type Alignment struct {
	Edits   []Edit
	Matches int
	Subs    int
	Inss    int
	Dels    int
}

// Len returns the alignment length l̂ (total columns).
func (a Alignment) Len() int { return a.Matches + a.Subs + a.Inss + a.Dels }

// Distance returns the edit distance (non-match operations).
func (a Alignment) Distance() int { return a.Subs + a.Inss + a.Dels }

// Pairwise globally aligns doc against ref with unit edit costs,
// preferring matches, then substitutions, then deletions, then insertions
// on ties so output is deterministic. O(len(ref)·len(doc)) time and space.
func Pairwise(ref, doc []int) Alignment {
	n, m := len(ref), len(doc)
	// dp[i][j]: min edits aligning ref[:i] with doc[:j].
	dp := make([][]int32, n+1)
	for i := range dp {
		dp[i] = make([]int32, m+1)
	}
	for i := 1; i <= n; i++ {
		dp[i][0] = int32(i)
	}
	for j := 1; j <= m; j++ {
		dp[0][j] = int32(j)
	}
	for i := 1; i <= n; i++ {
		ri := ref[i-1]
		row, prev := dp[i], dp[i-1]
		for j := 1; j <= m; j++ {
			diag := prev[j-1]
			if ri != doc[j-1] {
				diag++
			}
			best := diag
			if v := prev[j] + 1; v < best { // delete ref[i-1]
				best = v
			}
			if v := row[j-1] + 1; v < best { // insert doc[j-1]
				best = v
			}
			row[j] = best
		}
	}
	// Backtrack.
	var rev []Edit
	a := Alignment{}
	i, j := n, m
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && ref[i-1] == doc[j-1] && dp[i][j] == dp[i-1][j-1]:
			rev = append(rev, Edit{Op: Match, RefPos: i - 1, Token: doc[j-1]})
			a.Matches++
			i, j = i-1, j-1
		case i > 0 && j > 0 && dp[i][j] == dp[i-1][j-1]+1 && ref[i-1] != doc[j-1]:
			rev = append(rev, Edit{Op: Sub, RefPos: i - 1, Token: doc[j-1]})
			a.Subs++
			i, j = i-1, j-1
		case i > 0 && dp[i][j] == dp[i-1][j]+1:
			rev = append(rev, Edit{Op: Del, RefPos: i - 1})
			a.Dels++
			i--
		default: // j > 0
			rev = append(rev, Edit{Op: Ins, RefPos: i, Token: doc[j-1]})
			a.Inss++
			j--
		}
	}
	// Reverse into forward order.
	a.Edits = make([]Edit, len(rev))
	for k, e := range rev {
		a.Edits[len(rev)-1-k] = e
	}
	return a
}

// ConditionalCostScratch returns C(doc|ref): the MDL cost of encoding doc
// using ref as a slot-free single template (Section IV-B.1 uses this to
// build the candidate set: d joins when C(d|d1) < C(d)). The DP table
// comes from the caller-owned Scratch and no edit script is built; the
// cost is bit-identical to one derived from Pairwise's alignment.
func ConditionalCostScratch(ref, doc []int, vocabSize int, sc *Scratch) float64 {
	matches, subs, inss, dels := pairwiseStats(ref, doc, sc)
	return mdl.DataCostMatched(mdl.AlignStats{
		AlignLen:   matches + subs + inss + dels,
		Unmatched:  subs + inss + dels,
		AddedWords: subs + inss,
	}, 1, vocabSize)
}

// StandaloneCost returns C(doc): the cost of the document with no template.
func StandaloneCost(doc []int, vocabSize int) float64 {
	return mdl.DocCost(len(doc), vocabSize)
}
