package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Connected reports whether x and y share a set.
func (uf *UnionFind) Connected(x, y int) bool { return uf.Find(x) == uf.Find(y) }

// SetSize returns the size of x's set.
func (uf *UnionFind) SetSize(x int) int { return uf.size[uf.Find(x)] }

// Sets returns the current number of disjoint sets.
func (uf *UnionFind) Sets() int { return uf.sets }

// Edges returns the number of AddEdge calls.
func (b *Bipartite[K]) Edges() int { return b.edges }

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
	comps := uf.Components()
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

func TestBipartiteClusters(t *testing.T) {
	b := NewBipartite[string](6)
	// docs 0,1 share "cheap viagra"; docs 1,2 share "call now";
	// docs 4,5 share "hot deal"; doc 3 isolated.
	b.AddEdge(0, "cheap viagra")
	b.AddEdge(1, "cheap viagra")
	b.AddEdge(1, "call now")
	b.AddEdge(2, "call now")
	b.AddEdge(3, "lonely phrase")
	b.AddEdge(4, "hot deal")
	b.AddEdge(5, "hot deal")

	if b.Edges() != 7 {
		t.Errorf("Edges = %d", b.Edges())
	}
	if b.Phrases() != 4 {
		t.Errorf("Phrases = %d", b.Phrases())
	}
	clusters := b.Clusters(2)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	want := map[int]bool{0: true, 1: true, 2: true}
	for _, d := range clusters[0] {
		if !want[d] {
			t.Errorf("cluster 0 = %v", clusters[0])
		}
	}
	if len(clusters[1]) != 2 {
		t.Errorf("cluster 1 = %v", clusters[1])
	}
	// minSize=1 keeps singletons too.
	if got := len(b.Clusters(1)); got != 3 {
		t.Errorf("Clusters(1) = %d components, want 3", got)
	}
}

// Property: bipartite components match a brute-force two-mode BFS.
func TestBipartiteMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDocs := rng.Intn(15) + 2
		phrases := []string{"p0", "p1", "p2", "p3", "p4"}
		b := NewBipartite[string](nDocs)
		adj := make(map[string][]int)
		for d := 0; d < nDocs; d++ {
			for _, p := range phrases {
				if rng.Float64() < 0.25 {
					b.AddEdge(d, p)
					adj[p] = append(adj[p], d)
				}
			}
		}
		// Brute-force: union docs sharing any phrase.
		ref := NewUnionFind(nDocs)
		for _, docs := range adj {
			for i := 1; i < len(docs); i++ {
				ref.Union(docs[0], docs[i])
			}
		}
		got := b.Clusters(1)
		// Compare partition structure via pairwise connectivity.
		comp := make([]int, nDocs)
		for ci, c := range got {
			for _, d := range c {
				comp[d] = ci
			}
		}
		for i := 0; i < nDocs; i++ {
			for j := 0; j < nDocs; j++ {
				if (comp[i] == comp[j]) != ref.Connected(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
