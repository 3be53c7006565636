package graph

// Bipartite accumulates document→phrase edges and extracts the connected
// components over documents. Phrases are identified by opaque comparable
// keys (historically joined n-gram strings, now hashed phrase ids);
// documents by dense indices.
//
// Implementation note: we never materialize phrase nodes. The first
// document seen with a phrase becomes the phrase's anchor, and every later
// document carrying the same phrase unions with the anchor — exactly the
// same components as the explicit bipartite graph, in O(E α(N)).
type Bipartite[K comparable] struct {
	uf     *UnionFind
	anchor map[K]int
	edges  int
}

// NewBipartite prepares a graph over numDocs documents.
func NewBipartite[K comparable](numDocs int) *Bipartite[K] {
	return &Bipartite[K]{
		uf:     NewUnionFind(numDocs),
		anchor: make(map[K]int),
	}
}

// AddEdge records that phrase is a top phrase of document doc.
func (b *Bipartite[K]) AddEdge(doc int, phrase K) {
	b.edges++
	if a, ok := b.anchor[phrase]; ok {
		b.uf.Union(a, doc)
		return
	}
	b.anchor[phrase] = doc
}

// Phrases returns the number of distinct phrases seen.
func (b *Bipartite[K]) Phrases() int { return len(b.anchor) }

// Clusters returns the document components with at least minSize members.
// InfoShield-Coarse calls it with minSize=2, discarding single-copy
// documents (the paper's key scalability step).
func (b *Bipartite[K]) Clusters(minSize int) [][]int {
	var out [][]int
	for _, comp := range b.uf.Components() {
		if len(comp) >= minSize {
			out = append(out, comp)
		}
	}
	return out
}
