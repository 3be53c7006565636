// Package graph provides the union-find structure and the bipartite
// document–phrase graph used by InfoShield-Coarse (Algorithm 1): documents
// that share a top tf-idf phrase end up in the same connected component,
// and the components are the coarse candidate clusters.
package graph

// UnionFind is a disjoint-set forest with path halving and union by size.
type UnionFind struct {
	parent []int
	size   []int
	sets   int
}

// NewUnionFind returns n singleton sets labeled 0..n-1.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int, n),
		size:   make([]int, n),
		sets:   n,
	}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets holding x and y and reports whether a merge
// happened (false when they were already together).
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.size[rx] < uf.size[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	uf.size[rx] += uf.size[ry]
	uf.sets--
	return true
}

// Components groups element indices by set, in ascending order of each
// component's smallest member. Singleton components are included.
func (uf *UnionFind) Components() [][]int {
	groups := make(map[int][]int)
	order := make([]int, 0)
	for i := range uf.parent {
		r := uf.Find(i)
		if _, seen := groups[r]; !seen {
			order = append(order, r)
		}
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}
