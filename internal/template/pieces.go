package template

import "infoshield/internal/align"

// PieceOp classifies a fragment of a document relative to its template,
// matching the five colors of the paper's Table IV rendering.
type PieceOp int8

const (
	// Const is a token matching the template constant at its position.
	Const PieceOp = iota
	// SlotFill is a token stored as slot content.
	SlotFill
	// Ins is an inserted token (unmatched, not absorbed by a slot).
	Ins
	// Del marks a template position the document omits (no token).
	Del
	// Sub is a token substituted for the template constant.
	Sub
)

// String names the op for debugging and plain-text rendering.
func (op PieceOp) String() string {
	switch op {
	case Const:
		return "const"
	case SlotFill:
		return "slot"
	case Ins:
		return "ins"
	case Del:
		return "del"
	case Sub:
		return "sub"
	}
	return "?"
}

// Piece is one maximal run of same-op tokens in a document, in reading
// order. Del pieces carry the omitted template tokens instead.
type Piece struct {
	Op     PieceOp
	Tokens []int
}

// DocPieces decomposes row into display pieces: constants, slot fills,
// insertions, deletions, and substitutions, in document order, with
// adjacent same-op tokens merged into one piece.
func (f *Fit) DocPieces(row int) []Piece {
	var pieces []Piece
	emit := func(op PieceOp, tok int) {
		if n := len(pieces); n > 0 && pieces[n-1].Op == op {
			pieces[n-1].Tokens = append(pieces[n-1].Tokens, tok)
			return
		}
		pieces = append(pieces, Piece{Op: op, Tokens: []int{tok}})
	}
	r := f.M.Rows[row]
	nc := len(f.Cols)
	for c, tok := range r {
		p := f.pos[c]
		if f.isCons[c] {
			switch {
			case f.Slots[p]:
				if tok != align.Gap {
					emit(SlotFill, tok)
				}
			case tok == align.Gap:
				emit(Del, f.Tokens[p])
			case tok == f.Tokens[p]:
				emit(Const, tok)
			default:
				emit(Sub, tok)
			}
			continue
		}
		if tok == align.Gap {
			continue
		}
		if f.InsSlots[p] || (p < nc && f.Slots[p]) {
			emit(SlotFill, tok)
			continue
		}
		emit(Ins, tok)
	}
	return pieces
}

// SlotFills returns row's content per slot, in template reading order
// (the same slot order as docStats' SlotWords): SlotFills(row)[s] is the
// token-id sequence document row stores in slot s, possibly empty.
func (f *Fit) SlotFills(row int) [][]int {
	insIdx, convIdx, total := f.slotIndex()
	fills := make([][]int, total)
	r := f.M.Rows[row]
	nc := len(f.Cols)
	for c, tok := range r {
		if tok == align.Gap {
			continue
		}
		p := f.pos[c]
		if f.isCons[c] {
			if f.Slots[p] {
				fills[convIdx[p]] = append(fills[convIdx[p]], tok)
			}
			continue
		}
		switch {
		case insIdx[p] >= 0:
			fills[insIdx[p]] = append(fills[insIdx[p]], tok)
		case p < nc && f.Slots[p]:
			fills[convIdx[p]] = append(fills[convIdx[p]], tok)
		}
	}
	return fills
}

// Template is the finished, immutable template: token ids with slot marks,
// in reading order. Insert-slots carry token id -1 (they have no reference
// word); convert-slots keep the majority token for reference, but a
// renderer shows every slot as "*".
type Template struct {
	TokenIDs []int
	IsSlot   []bool
}

// Template freezes the fit into its final template value: insert-slots and
// consensus positions interleaved in reading order.
func (f *Fit) Template() Template {
	var t Template
	nc := len(f.Cols)
	for x := 0; x <= nc; x++ {
		if f.InsSlots[x] {
			t.TokenIDs = append(t.TokenIDs, -1)
			t.IsSlot = append(t.IsSlot, true)
		}
		if x < nc {
			t.TokenIDs = append(t.TokenIDs, f.Tokens[x])
			t.IsSlot = append(t.IsSlot, f.Slots[x])
		}
	}
	return t
}

// Len returns the template length.
func (t Template) Len() int { return len(t.TokenIDs) }

// NumSlots counts slot positions.
func (t Template) NumSlots() int {
	n := 0
	for _, s := range t.IsSlot {
		if s {
			n++
		}
	}
	return n
}
