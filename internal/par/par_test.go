package par

import (
	"reflect"
	"sync"
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

func TestMapDeterministicAcrossWorkers(t *testing.T) {
	const n = 137
	want := make([]int, n)
	Map(want, 1, func(w int) *int { s := w; return &s }, func(i int, _ *int) int {
		return i * i
	})
	for _, workers := range []int{2, 3, 8, 64} {
		got := make([]int, n)
		scratches := make(map[int]bool)
		var mu sync.Mutex
		Map(got, workers, func(w int) *int {
			mu.Lock()
			scratches[w] = true
			mu.Unlock()
			s := w
			return &s
		}, func(i int, sc *int) int {
			return i * i
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: output differs", workers)
		}
		if len(scratches) > Workers(workers) {
			t.Errorf("workers=%d: %d scratches created", workers, len(scratches))
		}
		for w := range scratches {
			if w < 0 || w >= Workers(workers) {
				t.Errorf("workers=%d: scratch index %d out of range", workers, w)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	Map(nil, 4, func(int) struct{} { return struct{}{} },
		func(int, struct{}) int { t.Fatal("fn called on empty out"); return 0 })
}
