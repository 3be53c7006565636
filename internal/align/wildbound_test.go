package align

import (
	"math"
	"math/rand"
	"testing"

	"infoshield/internal/mdl"
)

// TestWildBounderBitIdentical pins WildBounder.Bound and .DistBound to
// the exact bit patterns of WildConditionalLowerBound and
// WildDistanceLowerBound with one word per slot — the cost every caller
// charges. Bit equality (not ApproxEq) is the contract: the batched
// bound loop must make byte-identical pruning decisions.
func TestWildBounderBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ones := make([]int, 32)
	for i := range ones {
		ones[i] = 1
	}
	for it := 0; it < 20000; it++ {
		refLen := 1 + rng.Intn(96)
		docLen := rng.Intn(96)
		slots := rng.Intn(min(refLen, len(ones)) + 1)
		overlap := rng.Intn(refLen + 2)
		numT := 1 + rng.Intn(200000)
		vocab := 2 + rng.Intn(5000000)
		b := NewWildBounder(docLen, numT, vocab)

		want := WildConditionalLowerBound(refLen, docLen, overlap, ones[:slots], numT, vocab)
		got := b.Bound(refLen, overlap, slots)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Bound(ref=%d doc=%d ov=%d slots=%d t=%d V=%d) = %v, want %v",
				refLen, docLen, overlap, slots, numT, vocab, got, want)
		}

		// dist must be a feasible distance: at least |docLen - refLen|.
		dist := abs(docLen-refLen) + rng.Intn(16)
		want = WildDistanceLowerBound(refLen, docLen, dist, ones[:slots], numT, vocab)
		got = b.DistBound(refLen, dist, slots)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DistBound(ref=%d doc=%d dist=%d slots=%d t=%d V=%d) = %v, want %v",
				refLen, docLen, dist, slots, numT, vocab, got, want)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestWildBounderCostBitIdentical pins Cost to the unhoisted
// DataCostMatched of the oracle PairwiseWild alignment, with one word per
// slot, for every seed a caller passes: the exact distance (the matcher's
// bit-parallel seed), an underestimate (the widen path), and
// max(len(ref), len(doc)) (no distance: the one full fill). Half the
// cases pass a nil wild, as Fine's screen does.
func TestWildBounderCostBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var sc Scratch
	for it := 0; it < 3000; it++ {
		ref := make([]int, rng.Intn(90))
		doc := make([]int, rng.Intn(90))
		alpha := 1 + rng.Intn(6)
		for i := range ref {
			ref[i] = rng.Intn(alpha)
		}
		for j := range doc {
			doc[j] = rng.Intn(alpha)
		}
		oracleWild := make([]bool, len(ref))
		var wild []bool
		slots := 0
		if rng.Intn(2) == 0 {
			wild = oracleWild
			for i := range wild {
				if rng.Intn(6) == 0 {
					wild[i] = true
					slots++
				}
			}
		}
		slotWords := make([]int, slots)
		for i := range slotWords {
			slotWords[i] = 1
		}
		numT := 1 + rng.Intn(200000)
		vocab := 2 + rng.Intn(5000000)
		a := PairwiseWild(ref, oracleWild, doc)
		want := mdl.DataCostMatched(mdl.AlignStats{
			AlignLen:   a.Len(),
			Unmatched:  a.Distance(),
			AddedWords: a.Subs + a.Inss,
			SlotWords:  slotWords,
		}, numT, vocab)
		b := NewWildBounder(len(doc), numT, vocab)
		for _, dist := range []int{a.Distance(), a.Distance() / 2, max(len(ref), len(doc))} {
			got, _ := b.Cost(ref, wild, doc, dist, slots, &sc)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Cost(ref=%d doc=%d slots=%d dist=%d t=%d V=%d) = %v, want %v",
					len(ref), len(doc), slots, dist, numT, vocab, got, want)
			}
		}
	}
}
