// Package align provides token-level sequence alignment: one pairwise
// Needleman–Wunsch fill against a reference whose slot positions match
// any token; an exact bit-parallel distance and a banded fill it seeds;
// one matched-cost call, WildBounder.Cost, through which
// InfoShield-Fine's candidate screen (C(d|d1) < C(d), a seed document
// being a template with no slots), the streaming matcher and its merge
// probe (C(d|T) < C(d)) all price a document against a template, with
// the bounds that prune before it; the multiple-sequence-alignment
// matrix type shared with the POA aligner; and a cheap star-MSA
// alternative that demonstrates Fine is MSA-agnostic.
//
// Sequences are vocabulary token ids (see internal/tokenize). The gap
// marker is Gap (-1), which is never a valid token id.
package align

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
// on ties so output is deterministic, and returns the edit script with its
// counts. It runs the same fill as PairwiseWildScratch with no slots.
// O(len(ref)·len(doc)) time and space.
func Pairwise(ref, doc []int) Alignment {
	var sc Scratch
	return pairwise(ref, nil, doc, &sc, true)
}
