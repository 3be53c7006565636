package align

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// medianKillerInput builds the classic anti-quicksort permutation for
// middle-pivot partitioning: values arranged so every partition is
// maximally unbalanced. Combined with large descending runs it drives the
// pre-introsort quicksort toward its quadratic worst case.
func medianKillerInput(n int) []int {
	a := make([]int, n)
	// Interleave a descending run with an ascending one: the middle
	// pivot keeps landing near an extreme.
	for i := range a {
		if i%2 == 0 {
			a[i] = n - i
		} else {
			a[i] = i
		}
	}
	return a
}

func TestSortIntsMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]int{
		nil,
		{1},
		{2, 1},
		medianKillerInput(10_000),
	}
	// Already-sorted, reverse-sorted, and constant inputs at sizes around
	// the insertion-sort cutoff and well past it.
	for _, n := range []int{23, 24, 25, 100, 5000} {
		asc := make([]int, n)
		desc := make([]int, n)
		flat := make([]int, n)
		random := make([]int, n)
		for i := 0; i < n; i++ {
			asc[i] = i
			desc[i] = n - i
			flat[i] = 42
			random[i] = rng.Intn(n / 2)
		}
		cases = append(cases, asc, desc, flat, random)
	}
	for ci, in := range cases {
		got := append([]int(nil), in...)
		want := append([]int(nil), in...)
		SortInts(got)
		sort.Ints(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d (len %d): sortInts diverges from sort.Ints at %d: %d vs %d",
					ci, len(in), i, got[i], want[i])
			}
		}
	}
}

// TestSortIntsAdversarialDepth checks the heap-sort fallback engages
// instead of blowing the stack or going quadratic: a large median-killer
// input must sort correctly (the old quicksort recursed once per element
// on inputs like these).
func TestSortIntsAdversarialDepth(t *testing.T) {
	a := medianKillerInput(200_000)
	SortInts(a)
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			t.Fatalf("not sorted at %d: %d > %d", i, a[i-1], a[i])
		}
	}
}

// FuzzSortInts cross-checks sortInts against the standard library on
// arbitrary byte-derived inputs — including the adversarial shapes the
// depth-limit fallback exists for.
func FuzzSortInts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1})
	desc := make([]byte, 256)
	for i := range desc {
		desc[i] = byte(255 - i)
	}
	f.Add(desc)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]int, len(data))
		for i, b := range data {
			in[i] = int(b) - 128
		}
		got := append([]int(nil), in...)
		want := append([]int(nil), in...)
		SortInts(got)
		sort.Ints(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("diverges from sort.Ints at %d: %d vs %d", i, got[i], want[i])
			}
		}
	})
}

// BenchmarkSortInts times SortInts against its slices.Sort twin at the
// probe's sizes: a document's token ids (16–64) and a candidate batch
// (up to 128). Each op sorts a fresh copy of one of 64 random inputs
// drawn from a 2^17-word vocabulary, so both twins pay the same copy.
func BenchmarkSortInts(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128} {
		rng := rand.New(rand.NewSource(1))
		inputs := make([][]int, 64)
		for i := range inputs {
			inputs[i] = make([]int, n)
			for j := range inputs[i] {
				inputs[i][j] = rng.Intn(1 << 17)
			}
		}
		buf := make([]int, n)
		for _, impl := range []struct {
			name string
			sort func([]int)
		}{{"introsort", SortInts}, {"slices", slices.Sort[[]int]}} {
			b.Run(fmt.Sprintf("impl=%s/n=%d", impl.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, inputs[i%len(inputs)])
					impl.sort(buf)
				}
			})
		}
	}
}
