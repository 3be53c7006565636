package align

// Matrix is a multiple sequence alignment: one row per document, one
// column per alignment position; cells hold token ids or Gap. Both the
// POA aligner and the star aligner produce this shape, and everything in
// InfoShield-Fine past the alignment step (consensus search, slot
// detection, encoding) consumes it — making Fine MSA-agnostic, as the
// paper claims.
type Matrix struct {
	Rows [][]int // Rows[d][c] = token id or Gap
}

// NumRows returns the number of aligned documents.
func (m *Matrix) NumRows() int { return len(m.Rows) }

// NumCols returns the number of alignment columns (0 for an empty matrix).
func (m *Matrix) NumCols() int {
	if len(m.Rows) == 0 {
		return 0
	}
	return len(m.Rows[0])
}

// ColumnCounts returns, for column c, a map token→occurrences (gaps are
// not counted).
func (m *Matrix) ColumnCounts(c int) map[int]int {
	counts := make(map[int]int)
	for _, row := range m.Rows {
		if t := row[c]; t != Gap {
			counts[t]++
		}
	}
	return counts
}

// Validate checks structural invariants: rectangular shape and no
// all-gap rows. It returns false with a reason when violated; tests use it.
func (m *Matrix) Validate() (bool, string) {
	cols := m.NumCols()
	for _, row := range m.Rows {
		if len(row) != cols {
			return false, "ragged rows"
		}
		allGap := true
		for _, t := range row {
			if t != Gap {
				allGap = false
				break
			}
		}
		if allGap && cols > 0 {
			return false, "all-gap row"
		}
	}
	return true, ""
}

// Sequence reconstructs row d's original token sequence (gaps removed).
func (m *Matrix) Sequence(d int) []int {
	var seq []int
	for _, t := range m.Rows[d] {
		if t != Gap {
			seq = append(seq, t)
		}
	}
	return seq
}

// Star builds a star MSA: every sequence is pairwise-aligned to the first
// (the hub), and the pairwise alignments are merged column-wise with the
// usual "once a gap, always a gap" rule. Cheaper but cruder than POA; kept
// as the ablation alternative.
func Star(seqs [][]int) *Matrix {
	if len(seqs) == 0 {
		return &Matrix{}
	}
	hub := seqs[0]
	n := len(hub)
	// insBefore[i] = max tokens any sequence inserts before hub position i
	// (i == n means trailing insertions).
	insBefore := make([]int, n+1)
	aligns := make([]Alignment, len(seqs))
	for s := 1; s < len(seqs); s++ {
		a := Pairwise(hub, seqs[s])
		aligns[s] = a
		run, at := 0, 0
		flush := func() {
			if run > insBefore[at] {
				insBefore[at] = run
			}
			run = 0
		}
		for _, e := range a.Edits {
			if e.Op == Ins {
				if run == 0 {
					at = e.RefPos
				}
				run++
				continue
			}
			flush()
		}
		flush()
	}
	// Column layout: [ins block 0][hub 0][ins block 1][hub 1]...[ins block n]
	colOfHub := make([]int, n)
	insStart := make([]int, n+1)
	col := 0
	for i := 0; i <= n; i++ {
		insStart[i] = col
		col += insBefore[i]
		if i < n {
			colOfHub[i] = col
			col++
		}
	}
	total := col
	mat := &Matrix{Rows: make([][]int, len(seqs))}
	for s := range seqs {
		row := make([]int, total)
		for c := range row {
			row[c] = Gap
		}
		if s == 0 {
			for i, t := range hub {
				row[colOfHub[i]] = t
			}
		} else {
			insCount := make([]int, n+1)
			for _, e := range aligns[s].Edits {
				switch e.Op {
				case Match, Sub:
					row[colOfHub[e.RefPos]] = e.Token
				case Ins:
					row[insStart[e.RefPos]+insCount[e.RefPos]] = e.Token
					insCount[e.RefPos]++
				case Del:
					// leave gap at the hub column
				}
			}
		}
		mat.Rows[s] = row
	}
	return mat
}
