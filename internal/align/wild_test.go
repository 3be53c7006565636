package align

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"infoshield/internal/mdl"
)

// TokenCounts returns doc's token multiset as a count map.
func TokenCounts(doc []int) map[int]int {
	counts := make(map[int]int, len(doc))
	for _, t := range doc {
		counts[t]++
	}
	return counts
}

// Overlap returns the multiset intersection size between a precomputed
// count map and doc: the map-based oracle OverlapSorted is pinned to.
func Overlap(refCounts map[int]int, doc []int) int {
	m := 0
	for t, dc := range TokenCounts(doc) {
		if rc := refCounts[t]; rc < dc {
			m += rc
		} else {
			m += dc
		}
	}
	return m
}

// SortedCopy returns doc's tokens in ascending order, leaving doc as it is.
func SortedCopy(doc []int) []int {
	s := append([]int(nil), doc...)
	SortInts(s)
	return s
}

// PairwiseWild is the allocating reference aligner against a wildcard
// reference: ref[i] with wild[i] set matches any document token at zero
// cost (a template's slot), unit edit costs elsewhere, tie-break
// match > sub > del > ins, with the full edit script. It is the oracle
// PairwiseWildScratch, PairwiseWildBanded and WildDistanceMasked are
// pinned to, and the stream package's reference scans rely on those pins.
func PairwiseWild(ref []int, wild []bool, doc []int) Alignment {
	n, m := len(ref), len(doc)
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
	matches := func(i, j int) bool {
		return wild[i-1] || ref[i-1] == doc[j-1]
	}
	for i := 1; i <= n; i++ {
		row, prev := dp[i], dp[i-1]
		for j := 1; j <= m; j++ {
			diag := prev[j-1]
			if !matches(i, j) {
				diag++
			}
			best := diag
			if v := prev[j] + 1; v < best {
				best = v
			}
			if v := row[j-1] + 1; v < best {
				best = v
			}
			row[j] = best
		}
	}
	var rev []Edit
	a := Alignment{}
	i, j := n, m
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && matches(i, j) && dp[i][j] == dp[i-1][j-1]:
			rev = append(rev, Edit{Op: Match, RefPos: i - 1, Token: doc[j-1]})
			a.Matches++
			i, j = i-1, j-1
		case i > 0 && j > 0 && dp[i][j] == dp[i-1][j-1]+1 && !matches(i, j):
			rev = append(rev, Edit{Op: Sub, RefPos: i - 1, Token: doc[j-1]})
			a.Subs++
			i, j = i-1, j-1
		case i > 0 && dp[i][j] == dp[i-1][j]+1:
			rev = append(rev, Edit{Op: Del, RefPos: i - 1})
			a.Dels++
			i--
		default:
			rev = append(rev, Edit{Op: Ins, RefPos: i, Token: doc[j-1]})
			a.Inss++
			j--
		}
	}
	a.Edits = make([]Edit, len(rev))
	for k, e := range rev {
		a.Edits[len(rev)-1-k] = e
	}
	return a
}

// WildConditionalLowerBound is the unhoisted form of WildBounder.Bound
// over an arbitrary SlotWords vector (see Bound for the admissibility
// argument) — the oracle TestWildBounderBitIdentical pins Bound to.
func WildConditionalLowerBound(refLen, docLen, overlap int, slotWords []int, numTemplates, vocabSize int) float64 {
	alignLen := refLen
	if docLen > alignLen {
		alignLen = docLen
	}
	maxMatches := overlap + len(slotWords)
	if mn := min(refLen, docLen); maxMatches > mn {
		maxMatches = mn
	}
	unmatched := alignLen - maxMatches
	if unmatched < 0 {
		unmatched = 0
	}
	added := docLen - maxMatches
	if added < 0 {
		added = 0
	}
	return mdl.DataCostMatched(mdl.AlignStats{
		AlignLen:   alignLen,
		Unmatched:  unmatched,
		AddedWords: added,
		SlotWords:  slotWords,
	}, numTemplates, vocabSize)
}

func TestPairwiseWildMatchesAnywhere(t *testing.T) {
	ref := []int{1, 2, 3}
	wild := []bool{false, true, false}
	// Slot position matches any token at zero cost.
	a := PairwiseWild(ref, wild, []int{1, 99, 3})
	if a.Distance() != 0 || a.Matches != 3 {
		t.Errorf("wild match: %+v", a)
	}
	// Non-slot mismatch still costs.
	a = PairwiseWild(ref, wild, []int{7, 99, 3})
	if a.Subs != 1 || a.Distance() != 1 {
		t.Errorf("non-slot sub: %+v", a)
	}
}

func TestPairwiseWildNoWildcardsEqualsPairwise(t *testing.T) {
	var sc Scratch
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := randSeq(rng, 12, 5)
		doc := randSeq(rng, 12, 5)
		wild := make([]bool, len(ref))
		a := Pairwise(ref, doc)
		b := PairwiseWild(ref, wild, doc)
		c := PairwiseWildScratch(ref, nil, doc, &sc) // nil wild: no slots
		return a.Distance() == b.Distance() &&
			a.Matches == b.Matches && a.Len() == b.Len() &&
			sameCounts(c, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: adding wildcards never increases the distance.
func TestPairwiseWildMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := randSeq(rng, 12, 5)
		doc := randSeq(rng, 12, 5)
		if len(ref) == 0 {
			return true
		}
		wild := make([]bool, len(ref))
		base := PairwiseWild(ref, wild, doc).Distance()
		wild[rng.Intn(len(wild))] = true
		return PairwiseWild(ref, wild, doc).Distance() <= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the edit script still reconstructs the document.
func TestPairwiseWildScriptReconstructs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := randSeq(rng, 10, 4)
		doc := randSeq(rng, 10, 4)
		wild := make([]bool, len(ref))
		for i := range wild {
			wild[i] = rng.Intn(3) == 0
		}
		a := PairwiseWild(ref, wild, doc)
		got := reconstruct(a.Edits)
		return reflect.DeepEqual(got, doc) || (len(doc) == 0 && len(got) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the stats-only pooled wildcard aligner reproduces
// PairwiseWild's operation counts exactly — same scores, same tie-break —
// so every MDL cost derived from it is bit-identical.
func TestPairwiseWildScratchMatchesPairwiseWild(t *testing.T) {
	var sc Scratch
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := randSeq(rng, 14, 5)
		doc := randSeq(rng, 14, 5)
		wild := make([]bool, len(ref))
		for i := range wild {
			wild[i] = rng.Intn(3) == 0
		}
		want := PairwiseWild(ref, wild, doc)
		return sameCounts(PairwiseWildScratch(ref, wild, doc, &sc), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// sameCounts reports whether two alignments have the same operation
// counts.
func sameCounts(a, b Alignment) bool {
	return a.Matches == b.Matches && a.Subs == b.Subs &&
		a.Inss == b.Inss && a.Dels == b.Dels
}

// TestConditionalCostScratchMatches pins the slot-free paths —
// Pairwise's edit script, and the nil-wild full and banded fills behind
// Fine's screen — to PairwiseWild with an all-false wild slice. They
// are checked against the oracle, which shares no code with them, not
// against each other: the counts, and Pairwise's full edit script.
// Equal counts make every MDL cost derived from them bit-identical. The
// banded fill is seeded with the exact distance and with 0, so it runs
// bands narrower than the table as well as the widen-and-retry path.
func TestConditionalCostScratchMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sc Scratch
	for trial := 0; trial < 500; trial++ {
		n, m := rng.Intn(40), rng.Intn(40)
		ref := make([]int, n)
		doc := make([]int, m)
		for i := range ref {
			ref[i] = rng.Intn(12)
		}
		for i := range doc {
			doc[i] = rng.Intn(12)
		}
		want := PairwiseWild(ref, make([]bool, n), doc)
		if got := Pairwise(ref, doc); !sameCounts(got, want) || !slices.Equal(got.Edits, want.Edits) {
			t.Fatalf("trial %d: Pairwise %+v != PairwiseWild %+v", trial, got, want)
		}
		got := PairwiseWildScratch(ref, nil, doc, &sc)
		if !sameCounts(got, want) || got.Edits != nil {
			t.Fatalf("trial %d: nil-wild scratch %+v != PairwiseWild counts %+v", trial, got, want)
		}
		for _, dist := range []int{want.Distance(), 0} {
			if got, _ := PairwiseWildBanded(ref, nil, doc, dist, &sc); !sameCounts(got, want) {
				t.Fatalf("trial %d: nil-wild banded (dist %d) %+v != PairwiseWild counts %+v", trial, dist, got, want)
			}
		}
	}
}

// Property: the wildcard-template lower bound never exceeds the exact
// matched cost computed from the PairwiseWild alignment — the invariant
// that makes the streaming detector's DP pruning verdict-preserving.
func TestWildConditionalLowerBoundAdmissible(t *testing.T) {
	V := 1 << 12
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := randSeq(rng, 15, 6)
		doc := randSeq(rng, 15, 6)
		if len(ref) == 0 || len(doc) == 0 {
			return true
		}
		wild := make([]bool, len(ref))
		slots := 0
		for i := range wild {
			if rng.Intn(3) == 0 {
				wild[i] = true
				slots++
			}
		}
		// Constant-token multiset overlap: slots excluded from the counts.
		consts := make([]int, 0, len(ref))
		for i, tok := range ref {
			if !wild[i] {
				consts = append(consts, tok)
			}
		}
		slotWords := make([]int, slots)
		for i := range slotWords {
			slotWords[i] = 1
		}
		numT := 1 + rng.Intn(8)
		a := PairwiseWild(ref, wild, doc)
		exact := mdl.DataCostMatched(mdl.AlignStats{
			AlignLen:   a.Len(),
			Unmatched:  a.Distance(),
			AddedWords: a.Subs + a.Inss,
			SlotWords:  slotWords,
		}, numT, V)
		bound := WildConditionalLowerBound(len(ref), len(doc),
			Overlap(TokenCounts(consts), doc), slotWords, numT, V)
		return bound <= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func TestOverlapSortedMatchesMapOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSeq(rng, 20, 6)
		b := randSeq(rng, 20, 6)
		want := Overlap(TokenCounts(a), b)
		got := OverlapSorted(SortedCopy(a), SortedCopy(b))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSortedCopy(t *testing.T) {
	in := []int{5, 1, 4, 1, 3, 9, 2, 6, 8, 7, 0, 10, 30, 20, 15, 12, 11, 25, 24, 23, 22, 21, 19, 18, 17, 16, 14, 13}
	got := SortedCopy(in)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("not sorted at %d: %v", i, got)
		}
	}
	if in[0] != 5 {
		t.Error("SortedCopy mutated its input")
	}
	if len(got) != len(in) {
		t.Errorf("length changed: %d", len(got))
	}
}

// Property: Fine's screen is admissible — the slot-free overlap bound
// never exceeds the cost of the seed-as-template alignment it guards.
func TestConditionalLowerBoundAdmissible(t *testing.T) {
	V := 1 << 12
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := randSeq(rng, 15, 6)
		doc := randSeq(rng, 15, 6)
		if len(ref) == 0 || len(doc) == 0 {
			return true
		}
		bound := NewWildBounder(len(doc), 1, V).Bound(len(ref), Overlap(TokenCounts(ref), doc), 0)
		return bound <= ConditionalCost(ref, doc, V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
