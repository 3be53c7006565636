package poa

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// NumSequences returns how many sequences the graph holds.
func (g *Graph) NumSequences() int { return len(g.paths) }

// NumNodes returns the number of nodes (grows with diversity, not count).
func (g *Graph) NumNodes() int { return len(g.nodes) }

func TestNewSingleSequence(t *testing.T) {
	g := New([]int{1, 2, 3})
	if g.NumSequences() != 1 || g.NumNodes() != 3 {
		t.Fatalf("seqs=%d nodes=%d", g.NumSequences(), g.NumNodes())
	}
	m := g.Matrix()
	if m.NumRows() != 1 || m.NumCols() != 3 {
		t.Fatalf("matrix %dx%d", m.NumRows(), m.NumCols())
	}
	if got := m.Sequence(0); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("Sequence = %v", got)
	}
}

func TestAddExactDuplicate(t *testing.T) {
	seq := []int{5, 6, 7, 8}
	g := New(seq)
	g.Add(seq)
	g.Add(seq)
	// Duplicates fuse entirely: no new nodes, no new columns.
	if g.NumNodes() != 4 {
		t.Errorf("nodes = %d, want 4 (full fusion)", g.NumNodes())
	}
	m := g.Matrix()
	if m.NumCols() != 4 {
		t.Errorf("cols = %d, want 4", m.NumCols())
	}
	for d := 0; d < 3; d++ {
		if got := m.Sequence(d); !reflect.DeepEqual(got, seq) {
			t.Errorf("row %d = %v", d, got)
		}
	}
}

func TestAddSubstitution(t *testing.T) {
	g := New([]int{1, 2, 3})
	g.Add([]int{1, 9, 3})
	m := g.Matrix()
	// Substituted tokens share a column: still 3 columns, 4 nodes.
	if m.NumCols() != 3 {
		t.Errorf("cols = %d, want 3", m.NumCols())
	}
	if g.NumNodes() != 4 {
		t.Errorf("nodes = %d, want 4", g.NumNodes())
	}
	if m.Rows[0][1] != 2 || m.Rows[1][1] != 9 {
		t.Errorf("middle column = %d,%d", m.Rows[0][1], m.Rows[1][1])
	}
}

// The POA property profile methods lack: a third sequence can match the
// *second* sequence's variant, not just the first's.
func TestThirdSequenceMatchesEarlierVariant(t *testing.T) {
	g := New([]int{1, 2, 3})
	g.Add([]int{1, 9, 3})
	before := g.NumNodes()
	g.Add([]int{1, 9, 3}) // matches seq #2's variant exactly
	if g.NumNodes() != before {
		t.Errorf("nodes grew from %d to %d; variant should fuse", before, g.NumNodes())
	}
	m := g.Matrix()
	counts := m.ColumnCounts(1)
	if counts[9] != 2 || counts[2] != 1 {
		t.Errorf("column counts = %v", counts)
	}
}

func TestAddInsertionAndDeletion(t *testing.T) {
	g := New([]int{1, 2, 3})
	g.Add([]int{1, 2, 7, 3}) // insertion of 7
	g.Add([]int{1, 3})       // deletion of 2
	m := g.Matrix()
	if ok, reason := m.Validate(); !ok {
		t.Fatalf("Validate: %s", reason)
	}
	if m.NumCols() != 4 {
		t.Errorf("cols = %d, want 4", m.NumCols())
	}
	for d, want := range [][]int{{1, 2, 3}, {1, 2, 7, 3}, {1, 3}} {
		if got := m.Sequence(d); !reflect.DeepEqual(got, want) {
			t.Errorf("row %d = %v, want %v", d, got, want)
		}
	}
}

func TestEmptyGraphThenAdd(t *testing.T) {
	g := New(nil)
	g.Add([]int{4, 5})
	m := g.Matrix()
	if m.NumRows() != 2 {
		t.Fatalf("rows = %d", m.NumRows())
	}
	if got := m.Sequence(1); !reflect.DeepEqual(got, []int{4, 5}) {
		t.Errorf("row 1 = %v", got)
	}
}

// The toy example of Table II: three near-duplicate product ads.
func TestToyExampleColumns(t *testing.T) {
	// this=0 is=1 a=2 great=3 soap=4 and=5 the=6 5=7 dollar=8 price=9
	// chair=10 10=11 hat=12 3=13
	docs := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 3},
		{0, 1, 2, 3, 10, 5, 6, 11, 8, 9, 1, 3},
		{0, 1, 2, 3, 12, 5, 6, 13, 8, 9, 1, 3},
	}
	m := Build(docs)
	if ok, reason := m.Validate(); !ok {
		t.Fatalf("Validate: %s", reason)
	}
	if m.NumCols() != 12 {
		t.Fatalf("cols = %d, want 12 (perfect columnar alignment)", m.NumCols())
	}
	// Column 4 (product) and column 7 (price) hold three distinct tokens.
	for _, c := range []int{4, 7} {
		if counts := m.ColumnCounts(c); len(counts) != 3 {
			t.Errorf("column %d counts = %v, want 3 variants", c, counts)
		}
	}
	// All other columns are unanimous.
	for c := 0; c < 12; c++ {
		if c == 4 || c == 7 {
			continue
		}
		_, cnt, ok := m.Majority(c)
		if !ok || cnt != 3 {
			t.Errorf("column %d not unanimous", c)
		}
	}
}

func randSeq(rng *rand.Rand, maxLen, alphabet int) []int {
	n := rng.Intn(maxLen) + 1
	s := make([]int, n)
	for i := range s {
		s[i] = rng.Intn(alphabet)
	}
	return s
}

// Property: every sequence added to the graph is reconstructible from the
// matrix, and the matrix is structurally valid.
func TestMatrixPreservesSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 1
		seqs := make([][]int, n)
		for i := range seqs {
			seqs[i] = randSeq(rng, 10, 5)
		}
		m := Build(seqs)
		if ok, _ := m.Validate(); !ok {
			return false
		}
		for i := range seqs {
			if !reflect.DeepEqual(m.Sequence(i), seqs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: near-duplicates (one random edit from a base) align into a
// matrix whose column count stays close to the base length — POA should
// not explode columns on near-duplicate inputs.
func TestNearDuplicatesAlignCompactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]int, 20)
		for i := range base {
			base[i] = i + 100 // all distinct
		}
		seqs := [][]int{base}
		for k := 0; k < 6; k++ {
			dup := append([]int(nil), base...)
			switch rng.Intn(3) {
			case 0: // substitution
				dup[rng.Intn(len(dup))] = 999 + k
			case 1: // deletion
				p := rng.Intn(len(dup))
				dup = append(dup[:p], dup[p+1:]...)
			case 2: // insertion
				p := rng.Intn(len(dup) + 1)
				dup = append(dup[:p], append([]int{999 + k}, dup[p:]...)...)
			}
			seqs = append(seqs, dup)
		}
		m := Build(seqs)
		if ok, _ := m.Validate(); !ok {
			return false
		}
		// At most one extra column per inserted token.
		return m.NumCols() <= len(base)+6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: duplicate-only inputs never grow the node count beyond the
// base sequence (total fusion), for any base.
func TestDuplicateFusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randSeq(rng, 15, 8)
		g := New(base)
		for k := 0; k < 5; k++ {
			g.Add(base)
		}
		return g.NumNodes() == len(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBuildEmpty(t *testing.T) {
	m := Build(nil)
	if m.NumRows() != 0 || m.NumCols() != 0 {
		t.Errorf("empty build: %dx%d", m.NumRows(), m.NumCols())
	}
}

// TestBuildWithScratchMatchesBuild asserts scratch reuse changes
// allocations only: graphs built back-to-back on one Scratch must be
// identical to independently built ones, including after a larger
// cluster has grown the buffers (stale contents must never leak).
func TestBuildWithScratchMatchesBuild(t *testing.T) {
	mk := func(n, l, vary int) [][]int {
		seqs := make([][]int, n)
		for s := range seqs {
			seq := make([]int, l)
			for i := range seq {
				seq[i] = i
			}
			seq[s%l] = vary + s
			seqs[s] = seq
		}
		return seqs
	}
	clusters := [][][]int{
		mk(20, 25, 1000), // big first: grows the scratch
		mk(3, 7, 500),    // then small: must not see stale cells
		mk(12, 13, 900),
		{{1, 2, 3}},
		{},
	}
	sc := &Scratch{}
	for ci, seqs := range clusters {
		want := Build(seqs)
		got := BuildWith(sc, seqs)
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("cluster %d: row count %d != %d", ci, len(got.Rows), len(want.Rows))
		}
		for r := range want.Rows {
			if len(got.Rows[r]) != len(want.Rows[r]) {
				t.Fatalf("cluster %d row %d: width %d != %d", ci, r, len(got.Rows[r]), len(want.Rows[r]))
			}
			for c := range want.Rows[r] {
				if got.Rows[r][c] != want.Rows[r][c] {
					t.Fatalf("cluster %d row %d col %d: %d != %d", ci, r, c, got.Rows[r][c], want.Rows[r][c])
				}
			}
		}
	}
}
