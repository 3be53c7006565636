// Package poa implements Partial Order Alignment (Lee, Grasso & Sharlow,
// Bioinformatics 2002), the multiple-sequence-alignment method
// InfoShield-Fine uses. Sequences are incorporated one at a time into a
// directed acyclic graph whose nodes hold tokens; aligned alternatives
// (substitutions) are linked into "columns", so later sequences can match
// *any* earlier variant — the property that removes the ambiguity of
// profile-based MSA the paper cites.
//
// The graph can be flattened into an align.Matrix for consensus search and
// slot detection.
package poa

import (
	"fmt"
	"slices"

	"infoshield/internal/align"
)

// node is one token occurrence in the partial order graph.
type node struct {
	token   int
	support int   // sequences passing through this node
	column  int   // column (aligned group) id
	out     []int // successor node ids
	in      []int // predecessor node ids
}

// Graph is a partial order alignment under construction.
type Graph struct {
	nodes   []node
	columns int     // number of distinct columns allocated
	paths   [][]int // paths[s] = node ids visited by sequence s, in order
	sc      *Scratch
}

// Scratch holds the DP, topology, and column-ordering buffers Add and
// Matrix would otherwise reallocate per call. One Scratch serves one
// goroutine; InfoShield-Fine threads a per-worker Scratch through every
// graph it builds so a cluster's alignments share buffers. The zero
// value is ready to use.
type Scratch struct {
	nodeDeg []int // in-degrees during topoOrder
	order   []int // topo order (doubles as the Kahn queue)
	rank    []int // node id -> topo rank
	cells   []dpCell
	fuse    []int
	// Matrix (column DAG) buffers, indexed by column id.
	colRank  []int
	colIndex []int
	colDeg   []int
	colStart []int
	edges    []uint64
	ready    []int
}

// grow returns (*p)[:n], reallocating only when capacity is short.
// Contents are garbage; callers initialize what they read.
func grow(p *[]int, n int) []int {
	if cap(*p) < n {
		*p = make([]int, n)
	}
	*p = (*p)[:n]
	return *p
}

// New creates a graph holding the single sequence seq (a token-id slice).
// An empty seq yields an empty graph that later sequences still align to.
func New(seq []int) *Graph {
	g := &Graph{}
	g.addPath(seq, nil)
	return g
}

// scratch returns the graph's buffer set, allocating one on first use.
func (g *Graph) scratch() *Scratch {
	if g.sc == nil {
		g.sc = &Scratch{}
	}
	return g.sc
}

// newNode allocates a node in a fresh column and returns its id.
func (g *Graph) newNode(token int) int {
	id := len(g.nodes)
	g.nodes = append(g.nodes, node{token: token, column: g.columns})
	g.columns++
	return id
}

// newAlignedNode allocates a node sharing the column of node other.
func (g *Graph) newAlignedNode(token, other int) int {
	id := len(g.nodes)
	g.nodes = append(g.nodes, node{token: token, column: g.nodes[other].column})
	return id
}

func (g *Graph) addEdge(from, to int) {
	for _, v := range g.nodes[from].out {
		if v == to {
			return
		}
	}
	g.nodes[from].out = append(g.nodes[from].out, to)
	g.nodes[to].in = append(g.nodes[to].in, from)
}

// addPath records a brand-new chain for seq, fusing onto existing node ids
// where fuse[i] >= 0 (fuse may be nil meaning all-new nodes).
func (g *Graph) addPath(seq []int, fuse []int) {
	path := make([]int, len(seq))
	prev := -1
	for i, tok := range seq {
		var id int
		if fuse != nil && fuse[i] >= 0 {
			id = fuse[i]
		} else {
			id = g.newNode(tok)
		}
		g.nodes[id].support++
		if prev >= 0 {
			g.addEdge(prev, id)
		}
		path[i] = id
		prev = id
	}
	g.paths = append(g.paths, path)
}

// topoOrder returns node ids in a topological order, valid until the next
// call sharing sc. The graph is a DAG by construction (every edge goes
// from an earlier alignment position to a later one); a cycle would
// indicate a bug, so it panics loudly.
func (g *Graph) topoOrder(sc *Scratch) []int {
	indeg := grow(&sc.nodeDeg, len(g.nodes))
	for i := range g.nodes {
		indeg[i] = len(g.nodes[i].in)
	}
	// FIFO Kahn's algorithm with the output array doubling as the queue:
	// order[k] is processed in append order, which reproduces the classic
	// head-of-queue sequence. Deterministic because node and edge slices
	// are iterated in insertion order (no map iteration anywhere).
	order := grow(&sc.order, len(g.nodes))[:0]
	for i, d := range indeg {
		if d == 0 {
			order = append(order, i)
		}
	}
	for k := 0; k < len(order); k++ {
		for _, v := range g.nodes[order[k]].out {
			indeg[v]--
			if indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	sc.order = order
	if len(order) != len(g.nodes) {
		panic(fmt.Sprintf("poa: graph has a cycle: ordered %d of %d nodes", len(order), len(g.nodes)))
	}
	return order
}

// dpCell holds backtracking info for one (node, seqPos) state.
type dpCell struct {
	score int32
	move  uint8 // 0=none, 1=diag(match/sub), 2=del(consume node), 3=ins(consume seq)
	prevN int32 // predecessor node id for diag/del moves; -1 = virtual start
}

const (
	moveNone = iota
	moveDiag
	moveDel
	moveIns
)

// Add aligns seq against the graph with unit edit costs and fuses it in.
func (g *Graph) Add(seq []int) {
	if len(g.nodes) == 0 {
		g.addPath(seq, nil)
		return
	}
	sc := g.scratch()
	order := g.topoOrder(sc)
	rank := grow(&sc.rank, len(g.nodes)) // node id -> position in order
	for r, id := range order {
		rank[id] = r
	}
	m := len(seq)
	width := m + 1
	// cells[(r+1)*width + j]: best alignment of graph-prefix ending at
	// order[r] with seq[:j]. Row 0 is the virtual start. The buffer is
	// reused across Adds, so row 0 (the only row read before written) is
	// initialized explicitly, including the virtual-start cell.
	cells := growCells(&sc.cells, (len(order)+1)*width)
	cells[0] = dpCell{score: 0, move: moveNone, prevN: -1}
	for j := 1; j <= m; j++ {
		cells[j] = dpCell{score: int32(j), move: moveIns, prevN: -1}
	}
	// bestEndRow(r) for a node = min over its predecessors (or start).
	for r, id := range order {
		n := &g.nodes[id]
		row := (r + 1) * width
		// j = 0: must delete the whole path to this node; take the
		// cheapest predecessor chain.
		best := dpCell{score: 1<<30 - 1}
		consider := func(prevRow int, prevN int32) {
			if s := cells[prevRow].score + 1; s < best.score {
				best = dpCell{score: s, move: moveDel, prevN: prevN}
			}
		}
		if len(n.in) == 0 {
			consider(0, -1)
		}
		for _, p := range n.in {
			consider((rank[p]+1)*width, int32(p))
		}
		cells[row] = best
		for j := 1; j <= m; j++ {
			best := dpCell{score: 1<<30 - 1}
			subCost := int32(1)
			if n.token == seq[j-1] {
				subCost = 0
			}
			// Diagonal and delete moves from each predecessor (or start).
			tryPred := func(prevRow int, prevN int32) {
				if s := cells[prevRow+j-1].score + subCost; s < best.score {
					best = dpCell{score: s, move: moveDiag, prevN: prevN}
				}
				if s := cells[prevRow+j].score + 1; s < best.score {
					best = dpCell{score: s, move: moveDel, prevN: prevN}
				}
			}
			if len(n.in) == 0 {
				tryPred(0, -1)
			}
			for _, p := range n.in {
				tryPred((rank[p]+1)*width, int32(p))
			}
			// Insertion: consume seq token, stay at this node.
			if s := cells[row+j-1].score + 1; s < best.score {
				best = dpCell{score: s, move: moveIns, prevN: int32(id)}
			}
			cells[row+j] = best
		}
	}
	// The alignment may end at any node that is an end of some path (no
	// outgoing edges) — or, more simply, at the best over all "sink"
	// nodes, since global alignment must consume some maximal path. We
	// take the best over sink nodes; if the graph somehow has no sink
	// (impossible in a DAG), topoOrder would have panicked already.
	endRank, endScore := -1, int32(1<<30-1)
	for r, id := range order {
		if len(g.nodes[id].out) == 0 {
			if s := cells[(r+1)*width+m].score; s < endScore {
				endScore, endRank = s, r
			}
		}
	}
	if endRank < 0 { // empty-sequence graph edge case
		g.addPath(seq, nil)
		return
	}
	// Backtrack: produce fuse targets for each seq position. Mismatches
	// (diag moves with unequal tokens) become fresh nodes aligned into the
	// reference node's column. We deliberately do not hunt for same-token
	// siblings to reuse: the DP already matches any positionally
	// consistent variant at cost 0, so a mismatch here means no
	// consistent sibling exists, and creating a new aligned node is the
	// correct (and cycle-safe) move.
	fuse := grow(&sc.fuse, m)
	for i := range fuse {
		fuse[i] = -1
	}
	r, j := endRank, m
	for r >= 0 || j > 0 {
		var cell dpCell
		var id int
		if r >= 0 {
			id = order[r]
			cell = cells[(r+1)*width+j]
		} else {
			cell = cells[j]
		}
		switch cell.move {
		case moveDiag:
			if g.nodes[id].token == seq[j-1] {
				fuse[j-1] = id
			} else {
				fuse[j-1] = g.newAlignedNode(seq[j-1], id)
			}
			j--
			r = rankOf(cell.prevN, rank)
		case moveDel:
			r = rankOf(cell.prevN, rank)
		case moveIns:
			j--
			// stay at same node (or virtual start)
		default:
			// move==none only at (start, 0)
			if r < 0 && j == 0 {
				r = -2 // terminate
			} else {
				panic("poa: backtrack hit an unreachable cell")
			}
		}
		if r == -2 {
			break
		}
	}
	g.addPath(seq, fuse)
}

func rankOf(n int32, rank []int) int {
	if n < 0 {
		return -1
	}
	return rank[n]
}

// growCells is grow for the dpCell buffer.
func growCells(p *[]dpCell, n int) []dpCell {
	if cap(*p) < n {
		*p = make([]dpCell, n)
	}
	*p = (*p)[:n]
	return *p
}

// Matrix flattens the graph into an alignment matrix: columns are the
// aligned groups ordered topologically; each sequence row carries its
// token in the columns its path visits and gaps elsewhere.
func (g *Graph) Matrix() *align.Matrix {
	if len(g.nodes) == 0 {
		return &align.Matrix{Rows: make([][]int, len(g.paths))}
	}
	sc := g.scratch()
	order := g.topoOrder(sc)
	// Column order: contract each column (alignment ring) to a super-node
	// and topologically sort the resulting column DAG. Ordering columns by
	// node first-appearance alone is NOT sound: a substitution node with
	// no predecessors (a variant at the start of its sequence) pops early
	// in the node topo sort and would drag its whole column ahead of the
	// columns its ring-mates depend on.
	//
	// Column ids are dense (every id below g.columns was minted by newNode
	// and owns at least that node), so the bookkeeping runs on flat slices
	// indexed by column id rather than maps.
	numCols := g.columns
	colRank := grow(&sc.colRank, numCols) // column -> min node rank (tie-break)
	for i := range colRank {
		colRank[i] = -1
	}
	for r, id := range order {
		c := g.nodes[id].column
		if colRank[c] < 0 {
			colRank[c] = r
		}
	}
	// Column edges packed as from<<32|to, sort-deduped: a CSR adjacency
	// whose per-column runs are contiguous in the sorted slice.
	edges := sc.edges[:0]
	for u := range g.nodes {
		cu := g.nodes[u].column
		for _, v := range g.nodes[u].out {
			if cv := g.nodes[v].column; cu != cv {
				edges = append(edges, uint64(cu)<<32|uint64(uint32(cv)))
			}
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	sc.edges = edges
	indeg := grow(&sc.colDeg, numCols)
	for i := range indeg {
		indeg[i] = 0
	}
	colStart := grow(&sc.colStart, numCols+1)
	for i := range colStart {
		colStart[i] = len(edges)
	}
	for i := len(edges) - 1; i >= 0; i-- {
		colStart[edges[i]>>32] = i
		indeg[uint32(edges[i])]++
	}
	for c := numCols - 1; c >= 0; c-- {
		if colStart[c] > colStart[c+1] {
			colStart[c] = colStart[c+1]
		}
	}
	colIndex := grow(&sc.colIndex, numCols)
	for i := range colIndex {
		colIndex[i] = -1
	}
	assigned := 0
	ready := sc.ready[:0]
	for c := 0; c < numCols; c++ {
		if indeg[c] == 0 {
			ready = append(ready, c)
		}
	}
	pickMin := func(cands []int) (int, []int) {
		best := 0
		for i := 1; i < len(cands); i++ {
			if colRank[cands[i]] < colRank[cands[best]] {
				best = i
			}
		}
		c := cands[best]
		cands[best] = cands[len(cands)-1]
		return c, cands[:len(cands)-1]
	}
	for len(ready) > 0 {
		var c int
		c, ready = pickMin(ready)
		colIndex[c] = assigned
		assigned++
		for e := colStart[c]; e < colStart[c+1]; e++ {
			v := int(uint32(edges[e]))
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	sc.ready = ready
	if assigned < numCols {
		// A cycle in the column DAG can only arise from a pathological
		// alignment-ring inconsistency; fall back to min-node-rank order
		// for the leftover columns so output stays deterministic.
		var leftover []int
		for c := 0; c < numCols; c++ {
			if colIndex[c] < 0 {
				leftover = append(leftover, c)
			}
		}
		for len(leftover) > 0 {
			var c int
			c, leftover = pickMin(leftover)
			colIndex[c] = assigned
			assigned++
		}
	}
	mat := &align.Matrix{Rows: make([][]int, len(g.paths))}
	for s, path := range g.paths {
		row := make([]int, numCols)
		for i := range row {
			row[i] = align.Gap
		}
		for _, id := range path {
			row[colIndex[g.nodes[id].column]] = g.nodes[id].token
		}
		mat.Rows[s] = row
	}
	return mat
}

// Build is a convenience: aligns all seqs (first one seeds the graph) and
// returns the flattened matrix.
func Build(seqs [][]int) *align.Matrix {
	return BuildWith(nil, seqs)
}

// BuildWith is Build with a caller-owned Scratch, so consecutive graphs
// (InfoShield-Fine builds one per accepted candidate set) share DP and
// topology buffers. A nil sc allocates per graph, like Build.
func BuildWith(sc *Scratch, seqs [][]int) *align.Matrix {
	if len(seqs) == 0 {
		return &align.Matrix{}
	}
	g := New(seqs[0])
	g.sc = sc
	for _, s := range seqs[1:] {
		g.Add(s)
	}
	return g.Matrix()
}
