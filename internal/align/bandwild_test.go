package align

import (
	"math/rand"
	"testing"
)

// bandedInput decodes a fuzz byte stream into a wildcard-alignment case.
// Unlike fuzzWildInput it lets refLen straddle WildBitCap — the banded DP
// does not depend on the bit-parallel machinery, and the serving path's
// long-reference fallback deserves coverage too.
func bandedInput(data []byte) (ref []int, wild []bool, doc []int) {
	if len(data) < 3 {
		return nil, nil, nil
	}
	refLen := 1 + int(data[0])%96 // 1..96, straddling WildBitCap=64
	docLen := int(data[1]) % 96
	alpha := 1 + int(data[2])%5
	data = data[3:]
	at := 0
	next := func() byte {
		if at >= len(data) {
			at = 0
		}
		if len(data) == 0 {
			return 0
		}
		b := data[at]
		at++
		return b
	}
	ref = make([]int, refLen)
	wild = make([]bool, refLen)
	for i := range ref {
		b := next()
		ref[i] = int(b) % alpha
		wild[i] = b%7 == 0
	}
	doc = make([]int, docLen)
	for j := range doc {
		doc[j] = int(next()) % alpha
	}
	return ref, wild, doc
}

// checkBandedEqual pins PairwiseWildBanded op-for-op against the full DP
// for one (case, seed) pair and returns the retry count.
func checkBandedEqual(t *testing.T, ref []int, wild []bool, doc []int, dist int) int {
	t.Helper()
	var scFull, scBand Scratch
	want := PairwiseWildScratch(ref, wild, doc, &scFull)
	got, retries := PairwiseWildBanded(ref, wild, doc, dist, &scBand)
	if got.Matches != want.Matches || got.Subs != want.Subs ||
		got.Inss != want.Inss || got.Dels != want.Dels {
		t.Fatalf("banded (dist=%d, ref=%d, doc=%d) = %+v, full DP = %+v",
			dist, len(ref), len(doc), got, want)
	}
	return retries
}

// FuzzWildBanded drives the banded wildcard DP against PairwiseWildScratch
// with the exact distance as the seed (retries must be zero: the optimal
// path fits the band) and with a deliberately underestimated seed (the
// widen-and-retry path must still converge to the identical alignment).
func FuzzWildBanded(f *testing.F) {
	f.Add([]byte{10, 12, 3, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{70, 80, 2, 9, 9, 1, 0, 0, 3})    // refLen > WildBitCap
	f.Add([]byte{64, 64, 1, 0})                   // refLen == WildBitCap, all-equal
	f.Add([]byte{5, 0, 4, 1, 2})                  // empty document
	f.Add([]byte{1, 95, 5, 200, 100, 50, 25, 12}) // near-empty reference
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, wild, doc := bandedInput(data)
		if ref == nil {
			t.Skip()
		}
		var sc Scratch
		exact := PairwiseWildScratch(ref, wild, doc, &sc).Distance()
		if r := checkBandedEqual(t, ref, wild, doc, exact); r != 0 {
			t.Fatalf("exact seed %d still retried %d times", exact, r)
		}
		// Underestimated seeds must widen-and-retry into the same result.
		for _, seed := range []int{0, exact / 2} {
			checkBandedEqual(t, ref, wild, doc, seed)
		}
	})
}

// TestWildBandedRandom is the deterministic CI-shaped slice of the fuzz
// space: random masks and lengths on both sides of WildBitCap, exact and
// underestimated seeds, plus a check that underestimates actually force
// the retry loop at least sometimes (so the widen path is known-live).
func TestWildBandedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sawRetry := false
	for it := 0; it < 3000; it++ {
		refLen := 1 + rng.Intn(90)
		docLen := rng.Intn(90)
		alpha := 1 + rng.Intn(5)
		ref := make([]int, refLen)
		wild := make([]bool, refLen)
		for i := range ref {
			ref[i] = rng.Intn(alpha)
			wild[i] = rng.Intn(7) == 0
		}
		doc := make([]int, docLen)
		for j := range doc {
			doc[j] = rng.Intn(alpha)
		}
		var sc Scratch
		exact := PairwiseWildScratch(ref, wild, doc, &sc).Distance()
		if r := checkBandedEqual(t, ref, wild, doc, exact); r != 0 {
			t.Fatalf("exact seed retried %d times (ref=%d doc=%d)", r, refLen, docLen)
		}
		if r := checkBandedEqual(t, ref, wild, doc, 0); r > 0 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("no underestimated seed ever exercised the widen-and-retry path")
	}
}

// TestWildBandedAgainstBitParallel seeds the band exactly the way the
// serving path does — with WildDistanceMasked — and checks the contract
// end to end for references within the bit cap.
func TestWildBandedAgainstBitParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 2000; it++ {
		refLen := 1 + rng.Intn(WildBitCap)
		docLen := rng.Intn(40)
		alpha := 1 + rng.Intn(4)
		ref := make([]int, refLen)
		wild := make([]bool, refLen)
		for i := range ref {
			ref[i] = rng.Intn(alpha)
			wild[i] = rng.Intn(6) == 0
		}
		doc := make([]int, docLen)
		for j := range doc {
			doc[j] = rng.Intn(alpha)
		}
		dist := WildDistance(ref, wild, doc)
		if r := checkBandedEqual(t, ref, wild, doc, dist); r != 0 {
			t.Fatalf("bit-parallel seed retried %d times", r)
		}
	}
}
