package align

import "infoshield/internal/mdl"

// WildBounder prices a document against wildcard templates under one
// (numTemplates, vocabSize) model: Cost is the exact matched data cost
// C(d|T) of Eq. 3, and Bound and DistBound are admissible lower bounds
// on it that skip the O(len²) alignment. The document length and the
// model's cost constants are hoisted once per probe, so evaluating a
// bound over a whole structure-of-arrays candidate batch is a tight loop
// of integer clamps and a handful of float operations — no math.Log2
// per candidate.
//
// Every cost charges each slot one word, S(1): the serving path's slot
// approximation, and exact for a seed document, which has no slots. All
// three evaluate the mdl.DataCostMatched expression tree via
// mdl.MatchCoster.CostOnes; TestWildBounderBitIdentical pins them
// bit-for-bit against the unhoisted DataCostMatched evaluation, so
// pruning decisions cannot drift.
//
// Admissibility rests on monotonicity: every term of mdl.DataCostMatched
// is nondecreasing in (l̂, e, u) — alignment length, unmatched operations,
// added words — so evaluating it at componentwise minima cannot exceed
// the cost of the alignment PairwiseWildScratch returns. Termwise
// domination plus an identical summation order keeps the inequality true
// in floating point, not just in exact arithmetic. The streaming detector
// skips the DP for templates whose bound already reaches the best cost
// found so far, which cannot change the winning template or its cost.
type WildBounder struct {
	docLen int
	coster mdl.MatchCoster
}

// NewWildBounder hoists the per-probe constants for a document of docLen
// tokens matched against numTemplates templates over a vocabSize-word
// vocabulary.
func NewWildBounder(docLen, numTemplates, vocabSize int) WildBounder {
	return WildBounder{docLen: docLen, coster: mdl.NewMatchCoster(numTemplates, vocabSize)}
}

// ForDoc returns b re-aimed at a document of docLen tokens, keeping the
// hoisted model constants — for callers that bound many documents under
// one model (Fine's screen, one seed per round, many neighbors).
func (b WildBounder) ForDoc(docLen int) WildBounder {
	b.docLen = docLen
	return b
}

// Cost returns C(doc|ref), the exact matched data cost of doc encoded by
// the template ref, whose wild positions — slots of them — match any
// token (wild is nil for none: a seed document is a template with no
// slots). It aligns through PairwiseWildBanded seeded with dist and
// prices the alignment with CostOnes. dist is the unit-cost wildcard
// distance when the caller has it (WildDistanceMasked); a caller with
// none passes a seed of at least max(len(ref), len(doc)), which runs the
// one full fill. Either way the alignment, and so the cost, is the full
// DP's; retries counts band widenings, zero whenever dist is exact or at
// least that maximum. The cost reads len(doc), not the bounder's
// document length.
func (b WildBounder) Cost(ref []int, wild []bool, doc []int, dist, slots int, sc *Scratch) (cost float64, retries int) {
	a, retries := PairwiseWildBanded(ref, wild, doc, dist, sc)
	return b.coster.CostOnes(a.Len(), a.Distance(), a.Subs+a.Inss, slots), retries
}

// Bound is the overlap bound for a template of refLen positions
// (constants + slots), slots of them wildcards, whose constant tokens
// have multiset overlap `overlap` with the document. Any global alignment
// has
//
//	l̂ = matches + subs + inss + dels ≥ max(refLen, docLen)
//	matches ≤ overlap + slots       (a match consumes a wildcard position
//	                                 or a constant equal to a doc token)
//	matches ≤ min(refLen, docLen)
//	e  = l̂ − matches               (unmatched operations)
//	u  = docLen − matches          (each doc token is match, sub, or ins)
//
// and Bound evaluates the cost at l̂ = max lengths and matches at its
// upper bound — in the spirit of Lemma 1's relative-length bound. With
// slots = 0 it is the overlap bound Fine's screen tests a seed with.
func (b WildBounder) Bound(refLen, overlap, slots int) float64 {
	alignLen := refLen
	if b.docLen > alignLen {
		alignLen = b.docLen
	}
	maxMatches := overlap + slots
	if mn := min(refLen, b.docLen); maxMatches > mn {
		maxMatches = mn
	}
	unmatched := alignLen - maxMatches
	if unmatched < 0 {
		unmatched = 0
	}
	added := b.docLen - maxMatches
	if added < 0 {
		added = 0
	}
	return b.coster.CostOnes(alignLen, unmatched, added, slots)
}

// CostOnes exposes the hoisted mdl.MatchCoster for callers that apply
// their own clamps (the tier-0 bucket bound) — same per-probe constants,
// same bit-exact expression tree as mdl.DataCostMatched with one word
// per slot.
func (b WildBounder) CostOnes(alignLen, unmatched, added, slots int) float64 {
	return b.coster.CostOnes(alignLen, unmatched, added, slots)
}

// DistBound is the tighter bound given dist, the exact unit-cost wildcard
// distance (WildDistanceMasked): dist counts every unmatched operation of
// an optimal alignment, not just the token-multiset deficit. The
// alignment PairwiseWildScratch returns minimizes S+I+D (its scores are
// the unit-cost DP's), so its unmatched count e = S+I+D equals dist
// exactly, and its length l̂ = refLen + I ≥ max(refLen, docLen). Its
// added words are u = S+I = dist − D, and D is bounded by the length
// identity I − D = docLen − refLen: substituting into S + I + D = dist
// with S ≥ 0 gives D ≤ ⌊(dist − (docLen − refLen)) / 2⌋, hence
// u ≥ dist − that floor (dist ≥ |docLen − refLen| keeps the numerator
// nonnegative).
func (b WildBounder) DistBound(refLen, dist, slots int) float64 {
	alignLen := refLen
	if b.docLen > alignLen {
		alignLen = b.docLen
	}
	maxDels := (dist - (b.docLen - refLen)) / 2
	added := dist - maxDels
	if added < 0 {
		added = 0
	}
	return b.coster.CostOnes(alignLen, dist, added, slots)
}
