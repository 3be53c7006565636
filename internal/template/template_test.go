package template

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"infoshield/internal/align"
	"infoshield/internal/mdl"
	"infoshield/internal/poa"
)

// DocStats is docStats with its own slot index maps and slotWords
// buffer.
func (f *Fit) DocStats(row int) mdl.AlignStats {
	insIdx, convIdx, total := f.slotIndex()
	return f.docStats(row, insIdx, convIdx, make([]int, total))
}

const (
	testV = 1 << 12 // generic vocabulary size
	toyV  = 30      // the toy example's own tiny vocabulary (slots pay off)
)

// toyMatrix aligns the paper's Table II toy docs (ids per poa tests).
func toyMatrix() *align.Matrix {
	return poa.Build([][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 3},
		{0, 1, 2, 3, 10, 5, 6, 11, 8, 9, 1, 3},
		{0, 1, 2, 3, 12, 5, 6, 13, 8, 9, 1, 3},
	})
}

func TestNewFullConsensus(t *testing.T) {
	m := toyMatrix()
	f := New(m, 0) // h=0 keeps every column
	if f.Len() != 12 {
		t.Fatalf("Len = %d, want 12", f.Len())
	}
	if f.NumSlots() != 0 {
		t.Errorf("fresh fit has %d slots", f.NumSlots())
	}
}

func TestNewStrictConsensus(t *testing.T) {
	m := toyMatrix()
	f := New(m, 2) // only unanimous columns (count 3 > 2)
	// 10 of 12 columns are unanimous (product and price differ).
	if f.Len() != 10 {
		t.Fatalf("Len = %d, want 10", f.Len())
	}
}

func TestDocStatsExactMatch(t *testing.T) {
	seq := []int{1, 2, 3, 4, 5}
	m := poa.Build([][]int{seq, seq})
	f := New(m, 0)
	for row := 0; row < 2; row++ {
		s := f.DocStats(row)
		if s.Unmatched != 0 || s.AddedWords != 0 || s.AlignLen != 5 {
			t.Errorf("row %d stats = %+v", row, s)
		}
	}
}

func TestDocStatsSubstitution(t *testing.T) {
	m := poa.Build([][]int{{1, 2, 3}, {1, 9, 3}})
	f := New(m, 1) // majority: all three columns have count>=1... middle has 1,1
	// middle column majority count is 1, not > 1, so it's excluded: both
	// rows' middle tokens become insertions pooling at position 1.
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
	s := f.DocStats(0)
	if s.Unmatched != 1 || s.AddedWords != 1 || s.AlignLen != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDocStatsDeletion(t *testing.T) {
	m := poa.Build([][]int{{1, 2, 3}, {1, 3}, {1, 2, 3}})
	f := New(m, 0)
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	s := f.DocStats(1)
	if s.Unmatched != 1 || s.AddedWords != 0 {
		t.Errorf("deletion stats = %+v", s)
	}
	if s.AlignLen != 3 {
		t.Errorf("AlignLen = %d, want 3 (deletion occupies a column)", s.AlignLen)
	}
}

func TestSlotAbsorbsVariation(t *testing.T) {
	m := toyMatrix()
	f := New(m, 0)
	before := f.DataCost(1, toyV)
	f.DetectSlots(1, toyV)
	after := f.DataCost(1, toyV)
	if after > before {
		t.Errorf("DetectSlots increased data cost: %v -> %v", before, after)
	}
	if f.NumSlots() != 2 {
		t.Errorf("slots = %d, want 2 (product and price)", f.NumSlots())
	}
	// With slots on, the toy docs have no unmatched operations left.
	for row := 0; row < 3; row++ {
		s := f.DocStats(row)
		if s.Unmatched != 0 {
			t.Errorf("row %d still has %d unmatched ops: %+v", row, s.Unmatched, s)
		}
		if len(s.SlotWords) != 2 || s.SlotWords[0] != 1 || s.SlotWords[1] != 1 {
			t.Errorf("row %d slot words = %v", row, s.SlotWords)
		}
	}
}

func TestDetectSlotsLeavesUniformAlone(t *testing.T) {
	seq := []int{1, 2, 3, 4, 5, 6}
	m := poa.Build([][]int{seq, seq, seq})
	f := New(m, 0)
	f.DetectSlots(1, testV)
	if f.NumSlots() != 0 {
		t.Errorf("uniform cluster got %d slots", f.NumSlots())
	}
}

func TestConsensusSearchPicksGoodThreshold(t *testing.T) {
	m := toyMatrix()
	f := ConsensusSearch(m, 1, testV)
	got := f.TotalCost(1, testV)
	// Compare against the exhaustive best.
	best := got
	for h := 0; h < 3; h++ {
		if c := New(m, h).TotalCost(1, testV); c < best {
			best = c
		}
	}
	if got > best {
		t.Errorf("ConsensusSearch cost %v, exhaustive best %v", got, best)
	}
}

func TestConsensusSearchEmpty(t *testing.T) {
	f := ConsensusSearch(&align.Matrix{}, 1, testV)
	if f.Len() != 0 {
		t.Errorf("empty matrix Len = %d", f.Len())
	}
}

func TestDocPiecesToyExample(t *testing.T) {
	m := toyMatrix()
	f := New(m, 0)
	f.DetectSlots(1, toyV)
	pieces := f.DocPieces(0)
	// Expected: const run, slot(soap), const run, slot(5), const run.
	var ops []PieceOp
	for _, p := range pieces {
		ops = append(ops, p.Op)
	}
	want := []PieceOp{Const, SlotFill, Const, SlotFill, Const}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	if !reflect.DeepEqual(pieces[1].Tokens, []int{4}) {
		t.Errorf("slot 1 fill = %v", pieces[1].Tokens)
	}
}

func TestDocPiecesReconstruction(t *testing.T) {
	// Every non-Del piece token, concatenated, is the original document.
	m := toyMatrix()
	f := New(m, 0)
	f.DetectSlots(1, toyV)
	for row := 0; row < 3; row++ {
		var got []int
		for _, p := range f.DocPieces(row) {
			if p.Op != Del {
				got = append(got, p.Tokens...)
			}
		}
		if want := m.Sequence(row); !reflect.DeepEqual(got, want) {
			t.Errorf("row %d reconstruction = %v, want %v", row, got, want)
		}
	}
}

func TestTemplateFreeze(t *testing.T) {
	m := toyMatrix()
	f := New(m, 0)
	f.DetectSlots(1, toyV)
	tpl := f.Template()
	if tpl.Len() != f.Len() || tpl.NumSlots() != f.NumSlots() {
		t.Errorf("frozen template %d/%d, fit %d/%d",
			tpl.Len(), tpl.NumSlots(), f.Len(), f.NumSlots())
	}
	// Mutating the fit afterwards must not affect the frozen value.
	f.Slots[0] = true
	if tpl.IsSlot[0] {
		t.Error("frozen template aliases fit storage")
	}
}

// Property: DocStats agrees with the piece decomposition on the counts of
// unmatched operations and slot words, for random near-duplicate clusters.
func TestStatsAgreeWithPieces(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]int, 12)
		for i := range base {
			base[i] = i + 50
		}
		seqs := [][]int{base}
		for k := 0; k < 4; k++ {
			dup := append([]int(nil), base...)
			for e := 0; e < rng.Intn(3); e++ {
				switch rng.Intn(3) {
				case 0:
					dup[rng.Intn(len(dup))] = 200 + rng.Intn(5)
				case 1:
					p := rng.Intn(len(dup))
					dup = append(dup[:p], dup[p+1:]...)
				case 2:
					p := rng.Intn(len(dup) + 1)
					dup = append(dup[:p], append([]int{300 + rng.Intn(5)}, dup[p:]...)...)
				}
			}
			seqs = append(seqs, dup)
		}
		m := poa.Build(seqs)
		fit := New(m, len(seqs)/2)
		fit.DetectSlots(1, testV)
		for row := range seqs {
			s := fit.DocStats(row)
			unmatched, slotWords := 0, 0
			for _, p := range fit.DocPieces(row) {
				switch p.Op {
				case Ins, Del, Sub:
					unmatched += len(p.Tokens)
				case SlotFill:
					slotWords += len(p.Tokens)
				}
			}
			total := 0
			for _, w := range s.SlotWords {
				total += w
			}
			if unmatched != s.Unmatched || slotWords != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSlotFillsAgreeWithStats(t *testing.T) {
	m := toyMatrix()
	f := New(m, 0)
	f.DetectSlots(1, toyV)
	if f.NumSlots() == 0 {
		t.Fatal("toy should have slots")
	}
	for row := 0; row < 3; row++ {
		fills := f.SlotFills(row)
		stats := f.DocStats(row)
		if len(fills) != len(stats.SlotWords) {
			t.Fatalf("row %d: %d fills vs %d slot-word entries", row, len(fills), len(stats.SlotWords))
		}
		for s, fill := range fills {
			if len(fill) != stats.SlotWords[s] {
				t.Errorf("row %d slot %d: %d tokens vs SlotWords %d",
					row, s, len(fill), stats.SlotWords[s])
			}
		}
	}
	// The toy's first slot holds the product token for each doc.
	if got := f.SlotFills(0); len(got) > 0 && (len(got[0]) != 1 || got[0][0] != 4) {
		t.Errorf("doc 0 slot 0 = %v, want [4] (soap)", got[0])
	}
}

// Property: total cost with the chosen consensus never exceeds encoding
// the documents standalone by more than the model overhead, and for pure
// duplicate clusters it is strictly cheaper.
func TestDuplicateClustersCompress(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := rng.Intn(20) + 5
		base := make([]int, l)
		for i := range base {
			base[i] = rng.Intn(testV)
		}
		n := rng.Intn(6) + 2
		seqs := make([][]int, n)
		for i := range seqs {
			seqs[i] = base
		}
		m := poa.Build(seqs)
		fit := ConsensusSearch(m, 1, testV)
		fit.DetectSlots(1, testV)
		standalone := 0.0
		for range seqs {
			standalone += mdl.DocCost(l, testV)
		}
		return fit.TotalCost(1, testV) < standalone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMajoritiesMatchColumnCounts checks the per-matrix majorities, and
// the consensus New selects from them, against a ColumnCounts reference
// on random matrices over a four-token alphabet, so count ties and
// all-gap columns are common.
func TestMajoritiesMatchColumnCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ties, allGap := 0, 0
	for iter := 0; iter < 500; iter++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(10)
		gapCol := rng.Intn(cols + 1) // cols: no forced all-gap column
		m := &align.Matrix{Rows: make([][]int, rows)}
		for r := range m.Rows {
			m.Rows[r] = make([]int, cols)
			for c := range m.Rows[r] {
				m.Rows[r][c] = align.Gap
				if c != gapCol && rng.Intn(3) > 0 {
					m.Rows[r][c] = 7 * rng.Intn(4)
				}
			}
		}
		wantTok, wantCnt := make([]int, cols), make([]int, cols)
		for c := 0; c < cols; c++ {
			wantTok[c] = align.Gap
			counts := m.ColumnCounts(c)
			for tok, n := range counts {
				if n > wantCnt[c] || (n == wantCnt[c] && tok < wantTok[c]) {
					wantTok[c], wantCnt[c] = tok, n
				}
			}
			if len(counts) == 0 {
				allGap++
			}
			for tok, n := range counts {
				if n == wantCnt[c] && tok != wantTok[c] {
					ties++
					break
				}
			}
		}
		for h := 0; h < rows; h++ {
			f := New(m, h)
			if !reflect.DeepEqual(f.majTok, wantTok) || !reflect.DeepEqual(f.majCnt, wantCnt) {
				t.Fatalf("matrix %v: majorities %v/%v, want %v/%v",
					m.Rows, f.majTok, f.majCnt, wantTok, wantCnt)
			}
			var cons, toks []int
			for c := range wantCnt {
				if wantCnt[c] > h {
					cons = append(cons, c)
					toks = append(toks, wantTok[c])
				}
			}
			if !slices.Equal(f.Cols, cons) || !slices.Equal(f.Tokens, toks) {
				t.Fatalf("matrix %v h=%d: consensus %v/%v, want %v/%v",
					m.Rows, h, f.Cols, f.Tokens, cons, toks)
			}
		}
	}
	if ties == 0 || allGap == 0 {
		t.Fatalf("random matrices hit %d ties and %d all-gap columns; want both", ties, allGap)
	}
}
