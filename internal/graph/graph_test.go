package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Connected reports whether x and y share a set.
func (uf *UnionFind) Connected(x, y int) bool { return uf.Find(x) == uf.Find(y) }

// SetSize returns the size of x's set.
func (uf *UnionFind) SetSize(x int) int { return uf.size[uf.Find(x)] }

// Sets returns the current number of disjoint sets.
func (uf *UnionFind) Sets() int { return uf.sets }

func TestUnionFindBasic(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d", uf.Sets())
	}
	if !uf.Union(0, 1) {
		t.Error("first union should merge")
	}
	if uf.Union(1, 0) {
		t.Error("repeat union should not merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Sets() != 2 {
		t.Errorf("Sets = %d, want 2", uf.Sets())
	}
	if !uf.Connected(1, 2) {
		t.Error("1 and 2 should be connected")
	}
	if uf.Connected(0, 4) {
		t.Error("0 and 4 should not be connected")
	}
	if uf.SetSize(3) != 4 {
		t.Errorf("SetSize = %d, want 4", uf.SetSize(3))
	}
}

func TestUnionFindComponents(t *testing.T) {
	uf := NewUnionFind(6)
	uf.Union(0, 2)
	uf.Union(4, 5)
	comps := uf.Components(1)
	if len(comps) != 4 {
		t.Fatalf("got %d components: %v", len(comps), comps)
	}
	// First component contains 0 (smallest member order preserved).
	if comps[0][0] != 0 {
		t.Errorf("components not in first-member order: %v", comps)
	}
	total := 0
	for _, c := range comps {
		total += len(c)
	}
	if total != 6 {
		t.Errorf("components cover %d elements", total)
	}

	// minSize drops the smaller sets and keeps the order. Union by size
	// makes 4, not the least member 3, the root of {3, 4, 5}; the set
	// still comes out in its least member's place, members ascending.
	uf.Union(5, 3)
	want := [][]int{{0, 2}, {3, 4, 5}}
	if got := uf.Components(2); !reflect.DeepEqual(got, want) {
		t.Errorf("Components(2) = %v, want %v", got, want)
	}
	if got := uf.Components(3); !reflect.DeepEqual(got, want[1:]) {
		t.Errorf("Components(3) = %v, want %v", got, want[1:])
	}
	if got := uf.Components(4); len(got) != 0 {
		t.Errorf("Components(4) = %v, want none", got)
	}
}

// Property: after any union sequence, Connected agrees with a naive
// label-propagation reference.
func TestUnionFindMatchesReference(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		rng := rand.New(rand.NewSource(seed))
		uf := NewUnionFind(n)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		relabel := func(from, to int) {
			for i := range labels {
				if labels[i] == from {
					labels[i] = to
				}
			}
		}
		for k := 0; k < n*2; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			uf.Union(a, b)
			relabel(labels[a], labels[b])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if uf.Connected(i, j) != (labels[i] == labels[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: number of sets equals n minus successful unions.
func TestUnionFindSetCount(t *testing.T) {
	f := func(seed int64) bool {
		n := 30
		rng := rand.New(rand.NewSource(seed))
		uf := NewUnionFind(n)
		merges := 0
		for k := 0; k < 50; k++ {
			if uf.Union(rng.Intn(n), rng.Intn(n)) {
				merges++
			}
		}
		return uf.Sets() == n-merges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
