package mdl

import (
	"math"
	"testing"
	"testing/quick"
)

// UniversalExact returns the exact Elias-style log* code length
// lg(n) + lg lg(n) + ... + lg(c0) with c0 = 2.865064, which the tests use
// to bound Universal's approximation error; the pipeline uses Universal,
// as the paper does.
func UniversalExact(n int) float64 {
	const c0 = 2.865064
	if n < 1 {
		return Lg(c0)
	}
	total := Lg(c0)
	x := float64(n)
	for x > 1 {
		x = math.Log2(x)
		if x <= 0 {
			break
		}
		total += x
	}
	return total
}

// ModelCost returns C(M) for a template set (Eq. 2): ⟨t⟩ plus every
// template's TemplateCost.
func ModelCost(templates []TemplateStats, vocabSize int) float64 {
	cost := Universal(len(templates))
	for _, ts := range templates {
		cost += TemplateCost(ts, vocabSize)
	}
	return cost
}

// DataCostUnmatched returns the cost of a document no template encodes:
// 1 bit for the "no template" flag plus lg V per word.
func DataCostUnmatched(length, vocabSize int) float64 {
	return 1 + float64(length)*WordCost(vocabSize)
}

// VocabCost is the one-time cost of spelling out the vocabulary itself
// (Section III-B.3): ⟨V⟩ + V·(l̄+1)·8 bits, where l̄ is the average word
// length in characters, 8 bits per character, and 1 delimiter bit per
// word. The paper (and the pipeline) exclude it from model comparisons:
// it is identical for every template set.
func VocabCost(vocabSize int, avgWordLen float64) float64 {
	return Universal(vocabSize) + float64(vocabSize)*(avgWordLen+1)*8
}

func TestLg(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {1, 0}, {2, 1}, {8, 3}, {0.5, 0}, {-3, 0},
	}
	for _, c := range cases {
		if got := Lg(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Lg(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestUniversal(t *testing.T) {
	if got := Universal(0); got != 1 {
		t.Errorf("Universal(0) = %v", got)
	}
	if got := Universal(1); got != 1 {
		t.Errorf("Universal(1) = %v", got)
	}
	// ⟨n⟩ = 2 lg n + 1
	if got, want := Universal(8), 2*3.0+1; math.Abs(got-want) > 1e-12 {
		t.Errorf("Universal(8) = %v, want %v", got, want)
	}
}

// Property: Universal is monotone non-decreasing and always >= 1.
func TestUniversalMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		ux, uy := Universal(x), Universal(y)
		return ux >= 1 && ux <= uy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The approximation 2 lg n + 1 should stay within a few bits of the exact
// log* code for moderate n.
func TestUniversalApproxTracksExact(t *testing.T) {
	for n := 1; n <= 1<<16; n *= 2 {
		approx, exact := Universal(n), UniversalExact(n)
		if math.Abs(approx-exact) > 0.9*exact+4 {
			t.Errorf("n=%d: approx %v too far from exact %v", n, approx, exact)
		}
		if exact <= 0 {
			t.Errorf("UniversalExact(%d) = %v", n, exact)
		}
	}
}

func TestDocCost(t *testing.T) {
	// 10 words, V=1024: ⟨10⟩ + 10*10
	want := Universal(10) + 100.0
	if got := DocCost(10, 1024); math.Abs(got-want) > 1e-9 {
		t.Errorf("DocCost = %v, want %v", got, want)
	}
	if got := DocCost(0, 1024); got != 1 {
		t.Errorf("DocCost(0) = %v, want 1 (just the length code)", got)
	}
}

// Arithmetic Example 1 from the paper: a template with 10 tokens of which
// 2 are slots costs ⟨10⟩ + 8 lg V + 3 lg 10 — plus ⟨1⟩ for the template
// count, which ModelCost includes for the whole set. (The paper's example
// charges lg V for the slots too; we charge word indices for constants
// only, since slot content is charged per document via S(w).)
func TestModelCostArithmeticExample1(t *testing.T) {
	V := 1 << 12
	got := ModelCost([]TemplateStats{{Length: 10, Slots: 2}}, V)
	want := Universal(1) + Universal(10) + 8*WordCost(V) + 3*Lg(10)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ModelCost = %v, want %v", got, want)
	}
}

func TestModelCostEmpty(t *testing.T) {
	if got := ModelCost(nil, 100); got != 1 {
		t.Errorf("ModelCost(nil) = %v, want ⟨0⟩ = 1", got)
	}
}

// Property: model cost grows when adding a template.
func TestModelCostMonotoneInTemplates(t *testing.T) {
	f := func(lens []uint8) bool {
		V := 4096
		var stats []TemplateStats
		prev := ModelCost(stats, V)
		for _, l := range lens {
			length := int(l%50) + 1
			slots := int(l % 3)
			if slots > length {
				slots = length
			}
			stats = append(stats, TemplateStats{Length: length, Slots: slots})
			cur := ModelCost(stats, V)
			if cur <= prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSlotCost(t *testing.T) {
	if got := SlotCost(0, 100); got != 1 {
		t.Errorf("empty slot = %v, want 1", got)
	}
	V := 256
	want := 1 + Universal(3) + 3*WordCost(V)
	if got := SlotCost(3, V); math.Abs(got-want) > 1e-9 {
		t.Errorf("SlotCost(3) = %v, want %v", got, want)
	}
}

// Arithmetic Example 2 from the paper: doc #4 aligned to T1 costs
// lg 2 + ⟨14⟩ + 14 + 3 lg 14 + 2 lg V + 2(1 + ⟨1⟩ + lg V).
// In our terms: t=2 templates, alignment length 14, 3 unmatched ops of
// which 2 added words, and 2 slots each holding one word. Our cost equals
// the example plus the 1-bit template yes/no flag and the 2-bit op-type
// term per unmatched word — both demanded by the paper's prose bullet
// list but dropped from its arithmetic example.
func TestDataCostMatchedArithmeticExample2(t *testing.T) {
	V := 1 << 10
	a := AlignStats{AlignLen: 14, Unmatched: 3, AddedWords: 2, SlotWords: []int{1, 1}}
	got := DataCostMatched(a, 2, V)
	paper := Lg(2) + Universal(14) + 14 + 3*Lg(14) + 2*WordCost(V) +
		2*(1+Universal(1)+WordCost(V))
	want := paper + 1 + 3*opTypeBits
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("DataCostMatched = %v, want %v (paper %v)", got, want, paper)
	}
}

func TestDataCostUnmatched(t *testing.T) {
	V := 64
	want := 1 + 7*WordCost(V)
	if got := DataCostUnmatched(7, V); math.Abs(got-want) > 1e-9 {
		t.Errorf("DataCostUnmatched = %v, want %v", got, want)
	}
}

// Property: a perfectly matching doc (no edits, no slot words) is cheaper
// than encoding it standalone whenever it is long enough.
func TestTemplateCompressesDuplicates(t *testing.T) {
	V := 1 << 14
	for l := 4; l <= 200; l++ {
		matched := DataCostMatched(AlignStats{AlignLen: l}, 1, V)
		alone := DocCost(l, V)
		if matched >= alone {
			t.Errorf("length %d: matched %v >= standalone %v", l, matched, alone)
		}
	}
}

// Property: data cost is monotone in the number of unmatched operations.
func TestDataCostMonotoneInEdits(t *testing.T) {
	f := func(l, e uint8) bool {
		al := int(l%100) + 10
		ed := int(e) % al
		c1 := DataCostMatched(AlignStats{AlignLen: al, Unmatched: ed, AddedWords: ed}, 1, 4096)
		c2 := DataCostMatched(AlignStats{AlignLen: al, Unmatched: ed + 1, AddedWords: ed + 1}, 1, 4096)
		return c2 > c1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVocabCost(t *testing.T) {
	// 100 words averaging 5 chars: ⟨100⟩ + 100·6·8
	want := Universal(100) + 100*6*8
	if got := VocabCost(100, 5); math.Abs(got-want) > 1e-9 {
		t.Errorf("VocabCost = %v, want %v", got, want)
	}
	if got := VocabCost(0, 5); got != 1 {
		t.Errorf("VocabCost(0) = %v", got)
	}
}

func TestRelativeLength(t *testing.T) {
	if got := RelativeLength(50, 100); got != 0.5 {
		t.Errorf("RelativeLength = %v", got)
	}
	if got := RelativeLength(5, 0); got != 1 {
		t.Errorf("RelativeLength before=0 should be 1, got %v", got)
	}
}

func TestLowerBound(t *testing.T) {
	// t/n + 1/lgV
	V := 1 << 10 // lgV = 10
	got := LowerBound(2, 8, V)
	want := 2.0/8.0 + 1.0/10.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("LowerBound = %v, want %v", got, want)
	}
	if got := LowerBound(1, 0, V); got != 1 {
		t.Errorf("LowerBound n=0 = %v", got)
	}
	if got := LowerBound(1, 5, 1); got != 1 {
		t.Errorf("LowerBound V=1 = %v", got)
	}
}

// Lemma 1 (empirical form): encoding n exact duplicates of a length-l doc
// with one template achieves relative length approaching 1/n + 1/lgV.
func TestLowerBoundAchievedByExactDuplicates(t *testing.T) {
	V := 1 << 12
	l := 40
	for _, n := range []int{4, 16, 64, 256} {
		before := float64(n) * DocCost(l, V)
		after := ModelCost([]TemplateStats{{Length: l}}, V)
		for i := 0; i < n; i++ {
			after += DataCostMatched(AlignStats{AlignLen: l}, 1, V)
		}
		rel := RelativeLength(after, before)
		lb := LowerBound(1, n, V)
		if rel < lb-1e-9 {
			t.Errorf("n=%d: relative length %v below lower bound %v", n, rel, lb)
		}
		// Should be within a small factor of the bound for duplicates.
		if rel > 3*lb {
			t.Errorf("n=%d: relative length %v far above lower bound %v", n, rel, lb)
		}
	}
}

func TestApproxEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{1, 1 + 1e-12, true},             // absolute tolerance
		{1e12, 1e12 * (1 + 1e-12), true}, // relative tolerance at large magnitude
		{0, CostEpsilon, true},           // boundary
		{1, 1 + 1e-6, false},             // clearly different
		{1e12, 1e12 * (1 + 1e-6), false}, // beyond relative tolerance
		{-1, 1, false},
		{-1, -1 - 1e-12, true}, // symmetric for negatives
	}
	for _, c := range cases {
		if got := ApproxEq(c.a, c.b); got != c.want {
			t.Errorf("ApproxEq(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := ApproxEq(c.b, c.a); got != c.want {
			t.Errorf("ApproxEq(%v, %v) = %v, want %v (not symmetric)", c.b, c.a, got, c.want)
		}
	}
	// Sums of lg terms accumulated in different orders must compare equal.
	terms := []float64{Lg(3), Lg(7), Lg(11), Lg(500), Universal(42)}
	var fwd, rev float64
	for i := range terms {
		fwd += terms[i]
		rev += terms[len(terms)-1-i]
	}
	if !ApproxEq(fwd, rev) {
		t.Errorf("ApproxEq rejects reordered lg-term sums: %v vs %v", fwd, rev)
	}
}

// TestLookupTablesMatchDirect pins the small-n fast paths to the direct
// computations they cache, across the table boundary: the memoized MDL
// terms must be bit-identical to the formulas, or parallel and serial
// cost comparisons could diverge.
func TestLookupTablesMatchDirect(t *testing.T) {
	check := func(n int) {
		t.Helper()
		wantLg := Lg(float64(n))
		if got := LgInt(n); got != wantLg {
			t.Errorf("LgInt(%d) = %v, want %v", n, got, wantLg)
		}
		wantUni := 1.0
		if n > 1 {
			wantUni = 2*Lg(float64(n)) + 1
		}
		if got := Universal(n); got != wantUni {
			t.Errorf("Universal(%d) = %v, want %v", n, got, wantUni)
		}
	}
	for n := -2; n < 300; n++ {
		check(n)
	}
	for _, n := range []int{lgTabSize - 1, lgTabSize, lgTabSize + 1, 1 << 20} {
		check(n)
	}
}

// TestDataCostMatchedMonotone pins the monotonicity contract the
// streaming detector's admissible pruning bounds rely on: the matched
// data cost is nondecreasing in each of AlignLen, Unmatched, and
// AddedWords, including across the lookup-table boundary, and a
// componentwise-dominated stats vector never costs more — in floating
// point, not just in exact arithmetic.
func TestDataCostMatchedMonotone(t *testing.T) {
	const V = 1 << 14
	base := []AlignStats{
		{AlignLen: 1},
		{AlignLen: 7, Unmatched: 2, AddedWords: 1},
		{AlignLen: 30, Unmatched: 12, AddedWords: 9, SlotWords: []int{1, 1, 1}},
		{AlignLen: lgTabSize - 1, Unmatched: 5, AddedWords: 5},
		{AlignLen: lgTabSize + 3, Unmatched: 5, AddedWords: 5},
	}
	bump := []func(AlignStats) AlignStats{
		func(a AlignStats) AlignStats { a.AlignLen++; return a },
		func(a AlignStats) AlignStats { a.Unmatched++; return a },
		func(a AlignStats) AlignStats { a.AddedWords++; return a },
		func(a AlignStats) AlignStats { a.AlignLen += lgTabSize; return a },
	}
	for _, numT := range []int{1, 3, 200} {
		for _, a := range base {
			was := DataCostMatched(a, numT, V)
			for bi, f := range bump {
				if got := DataCostMatched(f(a), numT, V); got < was {
					t.Errorf("bump %d on %+v (t=%d): cost fell %v -> %v", bi, a, numT, was, got)
				}
			}
		}
	}
	// Randomized componentwise domination.
	f := func(l, e, u, dl, de, du uint8) bool {
		lo := AlignStats{AlignLen: int(l) + 1, Unmatched: int(e), AddedWords: int(u)}
		hi := AlignStats{
			AlignLen:   lo.AlignLen + int(dl),
			Unmatched:  lo.Unmatched + int(de),
			AddedWords: lo.AddedWords + int(du),
		}
		return DataCostMatched(lo, 5, V) <= DataCostMatched(hi, 5, V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
