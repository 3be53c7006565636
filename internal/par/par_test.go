package par

import (
	"sync/atomic"
	"testing"
)

func TestRangesCoversAllOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 100} {
			hits := make([]int32, n)
			Ranges(n, workers, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad range [%d,%d) for n=%d workers=%d", lo, hi, n, workers)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

func TestRangesChunksAreDeterministic(t *testing.T) {
	collect := func() map[int]int {
		chunks := make(map[int]int)
		var mu chan struct{} = make(chan struct{}, 1)
		mu <- struct{}{}
		Ranges(10, 3, func(lo, hi int) {
			<-mu
			chunks[lo] = hi
			mu <- struct{}{}
		})
		return chunks
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("chunking not deterministic: %v vs %v", a, b)
	}
	for lo, hi := range a {
		if b[lo] != hi {
			t.Fatalf("chunking not deterministic: %v vs %v", a, b)
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("Workers must default to >= 1")
	}
	if Workers(5) != 5 {
		t.Error("explicit worker count not respected")
	}
}
