// Package template turns a multiple-sequence alignment into an InfoShield
// template: the consensus selection Sel(A,h) (Section IV-B.2), per-document
// encoding statistics against the template, slot detection (Algorithm 3),
// and the piece decomposition the visualizer renders (Table IV's
// constant / slot / insertion / deletion / substitution coloring).
//
// Slots come in two forms, both MDL-tested by Algorithm 3's acceptance
// rule (enable iff the data cost drops):
//
//   - insert-slots sit *between* consensus tokens (or at either end) and
//     absorb the insertion words that pool there — this is what produces
//     the paper's "This is a great *, and the * dollar price is great":
//     the variant words were excluded from the consensus by the threshold
//     search and would otherwise be per-document insertions;
//   - convert-slots turn an existing consensus position into a slot,
//     absorbing the substitutions at that position (every document then
//     stores its token there as slot content).
package template

import (
	"slices"

	"infoshield/internal/align"
	"infoshield/internal/mdl"
	"infoshield/internal/search"
)

// Fit binds an alignment matrix to a consensus selection and slots. It is
// the working representation of a template-in-progress.
type Fit struct {
	M *align.Matrix
	// Cols[p] is the matrix column of consensus position p (ascending).
	Cols []int
	// Tokens[p] is the majority token at consensus position p.
	Tokens []int
	// Slots[p] marks consensus position p as a convert-slot.
	Slots []bool
	// InsSlots[x], x in [0, len(Cols)], marks an insert-slot in the gap
	// before consensus position x (x = len(Cols) is the trailing gap).
	InsSlots []bool

	majTok []int  // per matrix column: majority token (align.Gap if all-gap)
	majCnt []int  // per matrix column: the majority token's count
	isCons []bool // per matrix column: part of the consensus?
	pos    []int  // per matrix column: consensus position (pooling target)

	// DataCost scratch: slot index maps and the per-row slot-word counts,
	// reused across rows and threshold probes (DataCost is the inner loop
	// of both the consensus search and slot detection).
	insIdx, convIdx, slotWords []int
}

// New builds the consensus Sel(m, h): consensus positions are the matrix
// columns whose majority token occurs more than h times. No slots yet.
// A column's majority (its most frequent non-gap token, ties broken
// toward the smaller id) does not depend on h, so New counts each column
// once and every threshold the consensus search probes reuses it.
func New(m *align.Matrix, h int) *Fit {
	cols := m.NumCols()
	f := &Fit{M: m, majTok: make([]int, cols), majCnt: make([]int, cols)}
	col := make([]int, 0, m.NumRows())
	for c := 0; c < cols; c++ {
		col = col[:0]
		for _, row := range m.Rows {
			if t := row[c]; t != align.Gap {
				col = append(col, t)
			}
		}
		// Sorted, the runs ascend by token id, so a later run must be
		// strictly longer to win a tie.
		slices.Sort(col)
		f.majTok[c] = align.Gap
		run := 0
		for i, t := range col {
			run++
			if i > 0 && t != col[i-1] {
				run = 1
			}
			if run > f.majCnt[c] {
				f.majTok[c], f.majCnt[c] = t, run
			}
		}
	}
	f.consensus(h)
	return f
}

// grow returns (*p)[:n], reallocating only when capacity is short.
// Contents are garbage; callers initialize what they read.
func grow[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return *p
}

// consensus rebuilds f as Sel(f.M, h) with no slots from the column
// majorities, reusing f's buffers; the dichotomous search calls it once
// per probed threshold.
func (f *Fit) consensus(h int) {
	cols := len(f.majTok)
	f.isCons = grow(&f.isCons, cols)
	f.pos = grow(&f.pos, cols)
	f.Cols = f.Cols[:0]
	f.Tokens = f.Tokens[:0]
	for c, cnt := range f.majCnt {
		f.pos[c] = len(f.Cols) // pooling target: next consensus position
		f.isCons[c] = cnt > 0 && cnt > h
		if f.isCons[c] {
			f.Cols = append(f.Cols, c)
			f.Tokens = append(f.Tokens, f.majTok[c])
		}
	}
	f.Slots = grow(&f.Slots, len(f.Cols))
	for i := range f.Slots {
		f.Slots[i] = false
	}
	f.InsSlots = grow(&f.InsSlots, len(f.Cols)+1)
	for i := range f.InsSlots {
		f.InsSlots[i] = false
	}
}

// Len returns the template length l_i: consensus positions plus
// insert-slot positions.
func (f *Fit) Len() int {
	n := len(f.Cols)
	for _, s := range f.InsSlots {
		if s {
			n++
		}
	}
	return n
}

// NumSlots returns the total number of slot positions (both kinds).
func (f *Fit) NumSlots() int {
	n := 0
	for _, s := range f.Slots {
		if s {
			n++
		}
	}
	for _, s := range f.InsSlots {
		if s {
			n++
		}
	}
	return n
}

// TemplateStats summarizes the fit for the model cost C(M).
func (f *Fit) TemplateStats() mdl.TemplateStats {
	return mdl.TemplateStats{Length: f.Len(), Slots: f.NumSlots()}
}

// slotIndex returns, for each gap x, the slot index of an enabled
// insert-slot (else -1), and for each consensus position p, the slot index
// of an enabled convert-slot (else -1), plus the slot count. Slot order is
// template reading order.
func (f *Fit) slotIndex() (insIdx, convIdx []int, total int) {
	nc := len(f.Cols)
	insIdx = grow(&f.insIdx, nc+1)
	convIdx = grow(&f.convIdx, nc)
	for x := 0; x <= nc; x++ {
		insIdx[x] = -1
		if f.InsSlots[x] {
			insIdx[x] = total
			total++
		}
		if x < nc {
			convIdx[x] = -1
			if f.Slots[x] {
				convIdx[x] = total
				total++
			}
		}
	}
	return insIdx, convIdx, total
}

// docStats computes row's encoding statistics against the template:
// alignment length, unmatched operation count, added (vocab-indexed)
// words, and per-slot word counts. It fills a caller-provided (cleared
// here) slotWords buffer using the precomputed slot index maps — the
// allocation-free inner loop of DataCost. The returned stats alias
// slotWords.
//
// Pooling convention: an insertion in a non-consensus column pools to the
// gap before the next consensus position; if that gap has an insert-slot
// (or the following position is a convert-slot) the inserted word joins
// the slot content instead of being an unmatched operation. A mismatching
// token at a convert-slot position is likewise slot content.
func (f *Fit) docStats(row int, insIdx, convIdx, slotWords []int) mdl.AlignStats {
	for i := range slotWords {
		slotWords[i] = 0
	}
	stats := mdl.AlignStats{}
	r := f.M.Rows[row]
	nc := len(f.Cols)
	plainInserts := 0
	for c, tok := range r {
		p := f.pos[c]
		if f.isCons[c] {
			switch {
			case f.Slots[p]:
				if tok != align.Gap {
					slotWords[convIdx[p]]++
				}
			case tok == align.Gap: // deletion
				stats.Unmatched++
			case tok == f.Tokens[p]: // match
			default: // substitution
				stats.Unmatched++
				stats.AddedWords++
			}
			continue
		}
		// Non-consensus column: only insertions matter.
		if tok == align.Gap {
			continue
		}
		switch {
		case insIdx[p] >= 0:
			slotWords[insIdx[p]]++
		case p < nc && f.Slots[p]:
			slotWords[convIdx[p]]++
		default:
			stats.Unmatched++
			stats.AddedWords++
			plainInserts++
		}
	}
	stats.AlignLen = f.Len() + plainInserts
	stats.SlotWords = slotWords
	return stats
}

// DataCost returns C(Di | this template): the summed per-document cost of
// every row, assuming numTemplates templates exist in the model.
func (f *Fit) DataCost(numTemplates, vocabSize int) float64 {
	insIdx, convIdx, slots := f.slotIndex()
	slotWords := grow(&f.slotWords, slots)
	total := 0.0
	for row := range f.M.Rows {
		total += mdl.DataCostMatched(f.docStats(row, insIdx, convIdx, slotWords), numTemplates, vocabSize)
	}
	return total
}

// TotalCost returns DataCost plus this template's own share of the model
// cost (mdl.TemplateCost: its Eq. 2 terms, without the global ⟨t⟩).
func (f *Fit) TotalCost(numTemplates, vocabSize int) float64 {
	return mdl.TemplateCost(f.TemplateStats(), vocabSize) + f.DataCost(numTemplates, vocabSize)
}

// ConsensusSearch runs Algorithm 2: dichotomous search for the support
// threshold h* in [0, n-1] minimizing C(Di|Sel(A,h)), returning the fit at
// h*. numTemplates is the current model's template count (for lg t terms).
func ConsensusSearch(m *align.Matrix, numTemplates, vocabSize int) *Fit {
	f := New(m, 0)
	n := m.NumRows()
	if n == 0 {
		return f
	}
	h := search.Dichotomous(0, n-1, func(h int) float64 {
		f.consensus(h)
		return f.TotalCost(numTemplates, vocabSize)
	})
	f.consensus(h)
	return f
}

// pools returns, per gap x in [0, len(Cols)], the number of insertion
// words pooling there, and per consensus position p, the number of
// substitution words — Algorithm 3's slot candidates.
func (f *Fit) pools() (ins []int, subs []int) {
	nc := len(f.Cols)
	ins = make([]int, nc+1)
	subs = make([]int, nc)
	for _, r := range f.M.Rows {
		for c, tok := range r {
			if tok == align.Gap {
				continue
			}
			p := f.pos[c]
			if f.isCons[c] {
				if tok != f.Tokens[p] {
					subs[p]++
				}
				continue
			}
			ins[p]++
		}
	}
	return ins, subs
}

// DetectSlots runs Algorithm 3: for every gap with pooled insertions, try
// an insert-slot; for every consensus position with substitutions, try a
// convert-slot. Each is kept iff it lowers the data cost C(Di|Ti).
// Greedy, in template reading order, per the paper's pseudocode (which
// compares data costs; the template-level acceptance in Algorithm 4 still
// charges the slots' model-side cost).
func (f *Fit) DetectSlots(numTemplates, vocabSize int) {
	nc := len(f.Cols)
	if nc == 0 {
		return
	}
	ins, subs := f.pools()
	cur := f.DataCost(numTemplates, vocabSize)
	try := func(flag *bool) {
		*flag = true
		if with := f.DataCost(numTemplates, vocabSize); with < cur {
			cur = with
		} else {
			*flag = false
		}
	}
	for x := 0; x <= nc; x++ {
		if ins[x] > 0 {
			try(&f.InsSlots[x])
		}
		if x < nc && subs[x] > 0 && !f.InsSlots[x] {
			try(&f.Slots[x])
		}
	}
}
