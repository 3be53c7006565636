package align

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"infoshield/internal/mdl"
)

// WildDistance is WildDistanceMasked with the mask table built on the
// fly. len(ref) must be at most WildBitCap.
func WildDistance(ref []int, wild []bool, doc []int) int {
	wildMask, eqToks, eqMasks := WildEqMasks(ref, wild)
	return WildDistanceMasked(len(ref), wildMask, eqToks, eqMasks, doc)
}

// WildDistanceLowerBound is the unhoisted form of WildBounder.DistBound
// over an arbitrary SlotWords vector (see DistBound for the
// admissibility argument) — the oracle TestWildBounderBitIdentical pins
// DistBound to.
func WildDistanceLowerBound(refLen, docLen, dist int, slotWords []int, numTemplates, vocabSize int) float64 {
	alignLen := refLen
	if docLen > alignLen {
		alignLen = docLen
	}
	maxDels := (dist - (docLen - refLen)) / 2
	added := dist - maxDels
	if added < 0 {
		added = 0
	}
	return mdl.DataCostMatched(mdl.AlignStats{
		AlignLen:   alignLen,
		Unmatched:  dist,
		AddedWords: added,
		SlotWords:  slotWords,
	}, numTemplates, vocabSize)
}

// Property: the bit-parallel distance equals the DP's distance for every
// reference up to WildBitCap — the invariant that lets the streaming
// matcher use WildDistanceMasked as a pre-filter without changing any
// verdict.
func TestWildDistanceMatchesDP(t *testing.T) {
	var sc Scratch
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := randSeq(rng, WildBitCap, 7)
		doc := randSeq(rng, 80, 7)
		wild := make([]bool, len(ref))
		for i := range wild {
			wild[i] = rng.Intn(4) == 0
		}
		want := PairwiseWildScratch(ref, wild, doc, &sc).Distance()
		return WildDistance(ref, wild, doc) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWildDistanceEdges(t *testing.T) {
	var sc Scratch
	cases := []struct {
		name string
		ref  []int
		wild []bool
		doc  []int
	}{
		{"empty ref", nil, nil, []int{1, 2, 3}},
		{"empty doc", []int{1, 2, 3}, []bool{false, true, false}, nil},
		{"both empty", nil, nil, nil},
		{"all wild", []int{0, 0, 0}, []bool{true, true, true}, []int{9, 9}},
		{"single", []int{5}, []bool{false}, []int{5}},
		{"repeated token", []int{4, 4, 4, 4}, []bool{false, false, false, false}, []int{4, 4}},
	}
	// Full-width reference: bit 63 (the score row) must behave like any other.
	full := make([]int, WildBitCap)
	fullWild := make([]bool, WildBitCap)
	for i := range full {
		full[i] = i % 5
		fullWild[i] = i%7 == 0
	}
	cases = append(cases,
		struct {
			name string
			ref  []int
			wild []bool
			doc  []int
		}{"width 64", full, fullWild, []int{0, 1, 2, 3, 4, 0, 1, 2, 9, 9, 3}})
	for _, c := range cases {
		want := PairwiseWildScratch(c.ref, c.wild, c.doc, &sc).Distance()
		if got := WildDistance(c.ref, c.wild, c.doc); got != want {
			t.Errorf("%s: WildDistance = %d, want %d", c.name, got, want)
		}
	}
}

func TestWildEqMasksTable(t *testing.T) {
	ref := []int{7, 3, 7, 9, 3}
	wild := []bool{false, false, true, false, false}
	wildMask, eqToks, eqMasks := WildEqMasks(ref, wild)
	if wildMask != 1<<2 {
		t.Fatalf("wildMask = %b", wildMask)
	}
	if len(eqToks) != 3 || eqToks[0] != 3 || eqToks[1] != 7 || eqToks[2] != 9 {
		t.Fatalf("eqToks = %v, want ascending [3 7 9]", eqToks)
	}
	if eqMasks[0] != 1<<1|1<<4 || eqMasks[1] != 1<<0 || eqMasks[2] != 1<<3 {
		t.Fatalf("eqMasks = %b", eqMasks)
	}
}

// A nil wild means no slots, as it does for PairwiseWildScratch.
func TestWildEqMasksNilWild(t *testing.T) {
	ref := []int{7, 3, 7, 9, 3}
	wantMask, wantToks, wantMasks := WildEqMasks(ref, make([]bool, len(ref)))
	wildMask, eqToks, eqMasks := WildEqMasks(ref, nil)
	if wildMask != wantMask || !reflect.DeepEqual(eqToks, wantToks) || !reflect.DeepEqual(eqMasks, wantMasks) {
		t.Fatalf("nil wild: (%b, %v, %b), want the all-constant table (%b, %v, %b)",
			wildMask, eqToks, eqMasks, wantMask, wantToks, wantMasks)
	}
	doc := []int{3, 7, 9, 9}
	var sc Scratch
	if got, want := WildDistanceMasked(len(ref), wildMask, eqToks, eqMasks, doc),
		PairwiseWildScratch(ref, nil, doc, &sc).Distance(); got != want {
		t.Errorf("nil-wild distance = %d, want %d", got, want)
	}
}

// fuzzWildInput decodes a fuzz byte string into a bounded (ref, wild, doc)
// triple over a small alphabet, so the fuzzer explores repeated tokens and
// wildcard placements rather than huge random ids.
func fuzzWildInput(data []byte) (ref []int, wild []bool, doc []int) {
	if len(data) == 0 {
		return nil, nil, nil
	}
	n := int(data[0]) % (WildBitCap + 1)
	data = data[1:]
	for i := 0; i < n && i < len(data); i++ {
		b := data[i]
		ref = append(ref, int(b%11))
		wild = append(wild, b&0x80 != 0)
	}
	if len(ref) < len(data) {
		for _, b := range data[len(ref):] {
			if len(doc) >= 96 {
				break
			}
			doc = append(doc, int(b%11))
		}
	}
	return ref, wild, doc
}

// FuzzWildBitParallel pins the bit-parallel wildcard distance against the
// exact DP verdict-for-verdict: any divergence means the pre-filter could
// mis-prune, so equality is the whole contract.
func FuzzWildBitParallel(f *testing.F) {
	f.Add([]byte("\x05abcdeabcde"))
	f.Add([]byte("\x00plaindoc"))
	f.Add([]byte{64, 0x80, 0x81, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, wild, doc := fuzzWildInput(data)
		var sc Scratch
		want := PairwiseWildScratch(ref, wild, doc, &sc).Distance()
		if got := WildDistance(ref, wild, doc); got != want {
			t.Fatalf("WildDistance = %d, DP distance = %d (ref=%v wild=%v doc=%v)",
				got, want, ref, wild, doc)
		}
	})
}

// FuzzWildLowerBoundAdmissible checks both serving-path lower bounds —
// the overlap bound and the exact-distance refinement — never exceed the
// exact matched cost on random template/document pairs. Admissibility is
// what makes pruning verdict-preserving, so a single counterexample is a
// correctness bug, not an accuracy regression.
func FuzzWildLowerBoundAdmissible(f *testing.F) {
	f.Add([]byte("\x08tmplwordstmplwordsdocdocdoc"))
	f.Add([]byte{12, 'a', 0x80 | 'b', 'c', 'a', 0x80 | 'd', 'e', 'f', 'a', 'b', 'c', 'd', 'e', 'x', 'y', 'z', 'a', 'b'})
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, wild, doc := fuzzWildInput(data)
		if len(ref) == 0 || len(doc) == 0 {
			t.Skip("degenerate pair")
		}
		consts := make([]int, 0, len(ref))
		slots := 0
		for i, tok := range ref {
			if wild[i] {
				slots++
			} else {
				consts = append(consts, tok)
			}
		}
		slotWords := make([]int, slots)
		for i := range slotWords {
			slotWords[i] = 1
		}
		const numT, V = 5, 4096
		var sc Scratch
		a := PairwiseWildScratch(ref, wild, doc, &sc)
		exact := mdl.DataCostMatched(mdl.AlignStats{
			AlignLen:   a.Len(),
			Unmatched:  a.Distance(),
			AddedWords: a.Subs + a.Inss,
			SlotWords:  slotWords,
		}, numT, V)
		overlap := Overlap(TokenCounts(consts), doc)
		if lb := WildConditionalLowerBound(len(ref), len(doc), overlap, slotWords, numT, V); lb > exact {
			t.Fatalf("overlap bound %v exceeds exact cost %v (ref=%v wild=%v doc=%v)",
				lb, exact, ref, wild, doc)
		}
		dist := WildDistance(ref, wild, doc)
		if lb := WildDistanceLowerBound(len(ref), len(doc), dist, slotWords, numT, V); lb > exact {
			t.Fatalf("distance bound %v exceeds exact cost %v (dist=%d ref=%v wild=%v doc=%v)",
				lb, exact, dist, ref, wild, doc)
		}
	})
}
