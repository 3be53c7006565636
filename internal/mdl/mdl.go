// Package mdl implements the Minimum Description Length cost model of
// InfoShield (Section III-B of the paper): universal integer codes, the
// model cost C(M) of a template set (Eq. 2), the data cost C(D|M) of
// documents encoded against templates (Eq. 3), the slot cost S(w) (Eq. 4),
// and the relative-length diagnostics of Lemma 1.
//
// Costs are measured in bits and returned as float64; they are compared,
// never transmitted, so fractional bits are fine.
package mdl

import "math"

// Lg returns log2(x), the paper's "lg". Lg(x) for x <= 1 is 0: encoding a
// choice among one (or zero) alternatives is free.
func Lg(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}

// lgTabSize bounds the small-integer lookup tables below. Document and
// alignment lengths — the arguments Fine's hot loop feeds to Lg and
// Universal — are almost always below it; larger arguments fall back to
// the direct computation, which produces bit-identical values (the tables
// are filled with the very same expressions).
const lgTabSize = 1 << 11

var (
	lgTab  [lgTabSize]float64 // lgTab[n] = Lg(float64(n))
	uniTab [lgTabSize]float64 // uniTab[n] = Universal(n)
)

func init() {
	uniTab[0], uniTab[1] = 1, 1
	for n := 2; n < lgTabSize; n++ {
		lgTab[n] = math.Log2(float64(n))
		uniTab[n] = 2*lgTab[n] + 1
	}
}

// LgInt is Lg(float64(n)) with a small-n lookup table — the integer fast
// path for the length-indexed log terms of Eq. 2–4.
func LgInt(n int) float64 {
	if n >= 0 && n < lgTabSize {
		return lgTab[n]
	}
	return Lg(float64(n))
}

// Universal returns the universal code length ⟨n⟩ for a non-negative
// integer, using the paper's approximation ⟨n⟩ = log* n ≈ 2·lg n + 1
// (Rissanen 1983). ⟨0⟩ and ⟨1⟩ both cost 1 bit. Small n is table-driven.
func Universal(n int) float64 {
	if n < lgTabSize {
		if n <= 1 {
			return 1
		}
		return uniTab[n]
	}
	return 2*Lg(float64(n)) + 1
}

// WordCost returns lg V, the cost of one vocabulary index.
func WordCost(vocabSize int) float64 { return Lg(float64(vocabSize)) }

// DocCost is the standalone cost of a length-l document with no template:
// ⟨l⟩ to encode the length plus lg V per word (Section III-B.1).
func DocCost(length, vocabSize int) float64 {
	return Universal(length) + float64(length)*WordCost(vocabSize)
}

// TemplateStats summarizes one template for model-cost purposes.
type TemplateStats struct {
	Length int // l_i: number of tokens in the template (constants + slots)
	Slots  int // s_i: number of slots
}

// TemplateCost returns one template's share of C(M) (the summand of Eq. 2):
//
//	⟨l⟩ + (l - s)·lg V + (1+s)·lg l
//
// its length, a vocabulary index per *constant* token, the slot count, and
// a location per slot. Eq. 2 as printed charges lg V for every position
// including slots; a slot stores no vocabulary word (its content is
// charged per document via S(w)), so we charge the word index only for the
// l - s constants. This strictly refines the paper's bound and never
// changes which of two slot-free models wins.
func TemplateCost(ts TemplateStats, vocabSize int) float64 {
	return Universal(ts.Length) +
		float64(ts.Length-ts.Slots)*WordCost(vocabSize) +
		float64(1+ts.Slots)*LgInt(ts.Length)
}

// SlotCost returns S(w), the cost of a slot holding w words (Eq. 4):
// one bit for empty/non-empty, then ⟨w⟩ + w·lg V when non-empty.
func SlotCost(words, vocabSize int) float64 {
	if words <= 0 {
		return 1
	}
	return 1 + Universal(words) + float64(words)*WordCost(vocabSize)
}

// AlignStats summarizes one document's alignment against its template,
// the inputs to the per-document data cost (Eq. 3 and its prose bullets).
type AlignStats struct {
	AlignLen   int   // l̂_d: length of the alignment
	Unmatched  int   // e_d: unmatched words (insert + delete + substitute)
	AddedWords int   // u_d: inserted/substituted words needing a vocab index
	SlotWords  []int // w_{d,j}: number of words the document puts in slot j
}

// opTypeBits is ⌈lg 3⌉: the per-unmatched-word cost of naming the edit
// operation (insertion / deletion / substitution). Eq. 3 as printed and
// Arithmetic Example 2 omit this term, but the prose bullet list includes
// it — and it is required both for decodability and for the slot-vs-edit
// trade-off to behave as the paper describes (a slot's fixed 2-bit
// overhead beats per-word "location + type" storage exactly when the
// position is genuinely variable).
const opTypeBits = 2

// DataCostMatched returns the cost of one document encoded by a template
// out of t templates:
//
//	1 (template flag) + lg t + ⟨l̂⟩ + l̂ + e·(lg l̂ + 2) + u·lg V + Σ_j S(w_j)
//
// Batch template.Fit prices its documents here, and the tests use it as
// the unhoisted reference for MatchCoster.CostOnes, which every serving
// and Fine-screen cost runs through (via align.WildBounder).
//
// Monotonicity contract (relied on by align.WildBounder's bounds, pinned
// by TestDataCostMatchedMonotone):
// with the other fields held fixed, the cost is nondecreasing in each of
// AlignLen, Unmatched, and AddedWords — every term is a product of
// nonnegative factors that are themselves nondecreasing in those fields
// (Universal and LgInt are nondecreasing, including across the lookup-
// table boundary). Because the bounds evaluate this very function at
// componentwise-dominated stats with the identical summation order, the
// inequality survives floating-point rounding: fl(·) is monotone, so a
// termwise-dominated sum over the same expression tree cannot come out
// larger.
func DataCostMatched(a AlignStats, numTemplates, vocabSize int) float64 {
	cost := 1 + LgInt(numTemplates) +
		Universal(a.AlignLen) + float64(a.AlignLen) +
		float64(a.Unmatched)*(LgInt(a.AlignLen)+opTypeBits) +
		float64(a.AddedWords)*WordCost(vocabSize)
	for _, w := range a.SlotWords {
		cost += SlotCost(w, vocabSize)
	}
	return cost
}

// MatchCoster is DataCostMatched with the per-probe constants hoisted:
// the template-flag + lg t prefix, lg V, and the all-ones slot cost S(1)
// are computed once per probe instead of once per candidate (lg V is a
// live math.Log2 whenever the vocabulary outgrows the lookup table, and
// the serving path evaluates it ~4× per bound). The serving path charges
// every slot one word, S(1), and Fine's screen prices a seed with no
// slots, so CostOnes covers every cost either computes.
type MatchCoster struct {
	base    float64 // 1 + LgInt(numTemplates), the matched-document prefix
	lgV     float64 // WordCost(vocabSize)
	slotOne float64 // SlotCost(1, vocabSize)
}

// NewMatchCoster hoists the (numTemplates, vocabSize)-dependent terms.
func NewMatchCoster(numTemplates, vocabSize int) MatchCoster {
	return MatchCoster{
		base:    1 + LgInt(numTemplates),
		lgV:     WordCost(vocabSize),
		slotOne: SlotCost(1, vocabSize),
	}
}

// CostOnes returns DataCostMatched for AlignStats{alignLen, unmatched,
// added, SlotWords: all-ones of length slots} — bit-identical, not merely
// approximately equal: the summation tree is the same left-associated
// chain (base holds the identical fl(1 + lg t) prefix), and the slot loop
// adds the identical precomputed S(1) value the original loop recomputes,
// in the same order. TestMatchCosterBitIdentical pins this.
func (c MatchCoster) CostOnes(alignLen, unmatched, added, slots int) float64 {
	cost := c.base +
		Universal(alignLen) + float64(alignLen) +
		float64(unmatched)*(LgInt(alignLen)+opTypeBits) +
		float64(added)*c.lgV
	for k := 0; k < slots; k++ {
		cost += c.slotOne
	}
	return cost
}

// RelativeLength is cost-after-compression over cost-before-compression
// (Eq. 7). Near 1 means poor compression; near the Lemma-1 lower bound
// means the cluster is near-duplicate. A zero before-cost yields 1.
func RelativeLength(after, before float64) float64 {
	if before <= 0 {
		return 1
	}
	return after / before
}

// LowerBound is Lemma 1: the least achievable relative length for a
// cluster of n documents compressed with t templates over a V-word
// vocabulary, t/n + 1/lg V.
func LowerBound(numTemplates, numDocs, vocabSize int) float64 {
	if numDocs <= 0 {
		return 1
	}
	lgV := WordCost(vocabSize)
	if lgV <= 0 {
		return 1
	}
	return float64(numTemplates)/float64(numDocs) + 1/lgV
}

// CostEpsilon is the tolerance ApproxEq uses when comparing description
// lengths. Costs are sums of lg terms, so two mathematically equal costs
// computed along different code paths — or on different architectures —
// can differ in the last few ulps; 1e-9 bits is far below any decision
// threshold the search cares about.
const CostEpsilon = 1e-9

// ApproxEq reports whether two cost values are equal up to CostEpsilon,
// absolutely for small magnitudes and relatively for large ones. All
// equality decisions between description lengths must go through this
// helper (enforced by the floateq analyzer) so that search tie-breaking
// is stable across platforms.
func ApproxEq(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff <= CostEpsilon {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= CostEpsilon*scale
}
