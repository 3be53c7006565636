package align

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := &Matrix{Rows: [][]int{
		{1, 2, Gap, 3},
		{1, 9, 7, 3},
	}}
	if m.NumRows() != 2 || m.NumCols() != 4 {
		t.Fatalf("shape %dx%d", m.NumRows(), m.NumCols())
	}
	if got := m.Sequence(0); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("Sequence(0) = %v", got)
	}
	if ok, reason := m.Validate(); !ok {
		t.Errorf("Validate: %s", reason)
	}
}

func TestMatrixValidateCatchesRagged(t *testing.T) {
	m := &Matrix{Rows: [][]int{{1, 2}, {1}}}
	if ok, _ := m.Validate(); ok {
		t.Error("ragged matrix should fail validation")
	}
	m = &Matrix{Rows: [][]int{{1, 2}, {Gap, Gap}}}
	if ok, _ := m.Validate(); ok {
		t.Error("all-gap row should fail validation")
	}
}

func TestMatrixColumnCountsIgnoresGaps(t *testing.T) {
	m := &Matrix{Rows: [][]int{{Gap}, {5}, {5}, {7}}}
	counts := m.ColumnCounts(0)
	if counts[5] != 2 || counts[7] != 1 || len(counts) != 2 {
		t.Errorf("counts = %v", counts)
	}
}

func TestStarIdenticalSequences(t *testing.T) {
	seq := []int{3, 1, 4, 1, 5}
	m := Star([][]int{seq, seq, seq})
	if m.NumCols() != len(seq) {
		t.Fatalf("cols = %d", m.NumCols())
	}
	for d := range m.Rows {
		if got := m.Sequence(d); !reflect.DeepEqual(got, seq) {
			t.Errorf("row %d = %v", d, got)
		}
	}
}

func TestStarWithInsertion(t *testing.T) {
	hub := []int{1, 2, 3}
	ins := []int{1, 2, 9, 3} // inserts 9 before position 2
	m := Star([][]int{hub, ins})
	if ok, reason := m.Validate(); !ok {
		t.Fatalf("Validate: %s", reason)
	}
	if m.NumCols() != 4 {
		t.Errorf("cols = %d, want 4", m.NumCols())
	}
	if got := m.Sequence(0); !reflect.DeepEqual(got, hub) {
		t.Errorf("hub row = %v", got)
	}
	if got := m.Sequence(1); !reflect.DeepEqual(got, ins) {
		t.Errorf("ins row = %v", got)
	}
}

func TestStarEmptyInput(t *testing.T) {
	m := Star(nil)
	if m.NumRows() != 0 {
		t.Errorf("rows = %d", m.NumRows())
	}
}

// Property: Star preserves every sequence exactly (gaps removed) and
// produces a rectangular matrix.
func TestStarPreservesSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 1
		seqs := make([][]int, n)
		for i := range seqs {
			seqs[i] = randSeq(rng, 12, 5)
			if len(seqs[i]) == 0 {
				seqs[i] = []int{0}
			}
		}
		m := Star(seqs)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
