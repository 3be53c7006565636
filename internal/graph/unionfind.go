// Package graph provides the union-find structure behind every connected-
// components step: InfoShield-Coarse's document–phrase graph (Algorithm 1,
// built by tfidf.Components for both batch Coarse and the incremental
// miner), the LSH banding alternative and the strict-sharing ablation.
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

// Components groups element indices by set and returns the sets with at
// least minSize members (minSize ≤ 1 keeps singletons), in ascending
// order of each set's least member, members ascending. It places the
// members by counting offsets: the first visit to a root, which is at the
// set's least member, reserves the set's size in one shared slice.
func (uf *UnionFind) Components(minSize int) [][]int {
	members := make([]int, len(uf.parent))
	next := make([]int, len(uf.parent)) // per root: 0 unvisited, -1 dropped, else 1 + next write
	var out [][]int
	off := 0
	for i := range uf.parent {
		r := uf.Find(i)
		if next[r] == 0 {
			c := uf.size[r]
			if c < minSize {
				next[r] = -1
				continue
			}
			out = append(out, members[off:off+c:off+c])
			next[r] = off + 1
			off += c
		}
		if w := next[r]; w > 0 {
			members[w-1] = i
			next[r] = w + 1
		}
	}
	return out
}
