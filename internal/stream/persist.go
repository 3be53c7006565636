package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"infoshield/internal/tfidf"
)

// stateV3 is the on-disk detector representation: templates (live and
// lifecycle tombstones, with recency clocks and merge forward pointers),
// the pending buffer (texts + ids — so snapshotting does not require a
// flush), the incremental miner's retained window, and every document's
// verdict. The verdict column's length is the next document id. Tokens
// are stored as words (not vocabulary ids) so state survives across
// processes with different vocabularies; derived state (the tiered
// index, slot vectors, DF table, phrase selections) is rebuilt
// deterministically at load. Restored state is a pure function of the
// file, so snapshot + write-ahead-log replay is deterministic — it does
// not reproduce the pre-crash process byte-for-byte (vocabulary ids, and
// with them phrase hashes, are re-assigned at load). Earlier versions
// (1: templates only; 2: no verdicts) are rejected.
type stateV3 struct {
	Version   int               `json:"version"`
	Templates []templateStateV3 `json:"templates"`
	Pending   []pendingStateV3  `json:"pending,omitempty"`
	Retained  []retainedStateV3 `json:"retained,omitempty"`
	// Verdicts is the detector's verdict column: a raw template index,
	// -1 (noise) or -2 (pending) per document id.
	Verdicts []int32 `json:"verdicts,omitempty"`
}

type templateStateV3 struct {
	Words    []string `json:"words,omitempty"` // "" at wildcard positions
	Wild     []bool   `json:"wild,omitempty"`
	DocCount int      `json:"doc_count"`
	// LastMatch is the recency clock (highest matching document id, or
	// the registration high-water mark).
	LastMatch int `json:"last_match,omitempty"`
	// Dead marks a lifecycle tombstone; its payload is not serialized
	// (the slot exists only to keep template ids stable). Forward is the
	// merge successor (-1 for none) — not omitempty, template 0 is a
	// valid successor.
	Dead    bool `json:"dead,omitempty"`
	Forward int  `json:"forward"`
}

type pendingStateV3 struct {
	ID   int    `json:"id"`
	Text string `json:"text"`
}

type retainedStateV3 struct {
	ID  int `json:"id"`
	Age int `json:"age"` // flush epochs since arrival
	// Words is the tokenized document (tokens never contain whitespace,
	// so the stream re-encodes without re-tokenizing).
	Words []string `json:"words"`
}

// Save serializes the detector: templates (including lifecycle
// tombstones), the pending buffer, the incremental miner's retained
// window, and every document's verdict — nothing is lost without a
// flush.
func (d *Detector) Save(w io.Writer) error {
	st := stateV3{Version: 3, Verdicts: d.verdicts}
	for ti := range d.templates {
		t := &d.templates[ti]
		if d.isDead(ti) {
			st.Templates = append(st.Templates, templateStateV3{
				DocCount:  t.DocCount,
				LastMatch: d.lastMatch[ti],
				Dead:      true,
				Forward:   int(d.forward[ti]),
			})
			continue
		}
		ts := templateStateV3{
			Wild:      append([]bool(nil), t.Wild...),
			DocCount:  t.DocCount,
			LastMatch: d.lastMatch[ti],
			Forward:   -1,
		}
		for i, tok := range t.Tokens {
			if t.Wild[i] {
				ts.Words = append(ts.Words, "")
				continue
			}
			ts.Words = append(ts.Words, d.vocab.Word(tok))
		}
		st.Templates = append(st.Templates, ts)
	}
	for i, text := range d.pendingTexts {
		st.Pending = append(st.Pending, pendingStateV3{ID: d.pendingIDs[i], Text: text})
	}
	if d.mine != nil {
		for i := range d.mine.docs {
			doc := &d.mine.docs[i]
			words := make([]string, len(doc.toks))
			for j, tok := range doc.toks {
				words[j] = d.vocab.Word(tok)
			}
			st.Retained = append(st.Retained, retainedStateV3{
				ID:    doc.id,
				Age:   d.mine.epoch - doc.epoch,
				Words: words,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&st)
}

// Load restores state saved by Save into a (typically fresh) detector,
// merging after any templates it already holds. Document counts,
// recency clocks and verdicts resume from the saved values. The tiered
// index, slot vectors, DF table, and phrase selections are derived
// state, not persisted: templates re-enter through register, pending
// texts re-tokenize, and the retained window re-extracts — all
// deterministic functions of the file, so a restored detector replays a
// write-ahead log to the same verdicts every time.
//
// A state carrying documents or tombstones describes a whole detector —
// its verdicts and forward pointers index its own templates by position
// — and only loads into an empty one; template-only states merge
// anywhere. The file is outside input: Load rejects it, before changing
// anything, unless every index in it is in range and every forward
// chain ends.
func (d *Detector) Load(r io.Reader) error {
	var st stateV3
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("stream: decode state: %w", err)
	}
	if st.Version != 3 {
		return fmt.Errorf("stream: unsupported state version %d", st.Version)
	}
	if err := st.validate(); err != nil {
		return err
	}
	whole := len(st.Verdicts) > 0 || slices.ContainsFunc(st.Templates, func(ts templateStateV3) bool { return ts.Dead })
	if whole && (len(d.templates) > 0 || len(d.verdicts) > 0) {
		return fmt.Errorf("stream: a state carrying documents or tombstones loads only into an empty detector")
	}
	d.verdicts = append(d.verdicts, st.Verdicts...)
	for _, ts := range st.Templates {
		if ts.Dead {
			d.templates = append(d.templates, Template{DocCount: ts.DocCount})
			d.dead = append(d.dead, true)
			d.forward = append(d.forward, int32(ts.Forward))
			d.lastMatch = append(d.lastMatch, ts.LastMatch)
			d.anyDead = true
			d.index.addDead()
			continue
		}
		t := Template{
			Wild:     append([]bool(nil), ts.Wild...),
			Tokens:   make([]int, len(ts.Words)),
			DocCount: ts.DocCount,
		}
		for i, w := range ts.Words {
			if ts.Wild[i] {
				continue
			}
			t.Tokens[i] = d.vocab.Add(w)
		}
		i := len(d.templates)
		d.register(t)
		d.lastMatch[i] = ts.LastMatch
	}
	for _, p := range st.Pending {
		d.pendingTexts = append(d.pendingTexts, p.Text)
		d.pendingToks = append(d.pendingToks, d.vocab.Encode(d.tk.Tokens(p.Text)))
		d.pendingIDs = append(d.pendingIDs, p.ID)
	}
	if len(st.Retained) > 0 {
		toks := make([][]int, len(st.Retained))
		for i, rd := range st.Retained {
			toks[i] = d.vocab.Encode(rd.Words)
		}
		ms := &mineState{}
		ms.extract(toks, d.mineMaxN())
		// Selections are recomputed against the restored window — a
		// deterministic function of the file, like everything above.
		frac, floorFrac := d.mineTopFraction(), tfidf.DefaultRelativeFloor
		sels := make([]int32, len(toks)+1)
		for i := range toks {
			ms.sel = ms.selectTop(ms.sel, ms.phrases(i), len(toks), len(toks[i]), frac, floorFrac)
			sels[i+1] = int32(len(ms.sel))
		}
		slab := make([]uint64, len(ms.phr)+len(ms.sel))
		for i, rd := range st.Retained {
			slab = ms.retain(slab, i, rd.ID, toks[i], ms.sel[sels[i]:sels[i+1]], -rd.Age)
		}
		d.mine = ms
	}
	return nil
}

// validate checks the state's internal references: template shapes, the
// verdict column against the template count, the pending and retained
// ids against the column, and the tombstones' forward pointers. A
// forward cycle would spin resolve forever while it holds the commit
// lock's read side, so chains must end.
func (st *stateV3) validate() error {
	nT := len(st.Templates)
	for ti, ts := range st.Templates {
		if ts.Dead {
			if ts.Forward < -1 || ts.Forward >= nT {
				return fmt.Errorf("stream: template %d: forward %d outside [-1, %d)", ti, ts.Forward, nT)
			}
			continue
		}
		if len(ts.Words) != len(ts.Wild) {
			return fmt.Errorf("stream: template %d: %d words vs %d wild flags",
				ti, len(ts.Words), len(ts.Wild))
		}
	}
	// walk[ti] is 1 + the template whose chain walk first reached ti;
	// each template is walked once, so the check is linear.
	walk := make([]int, nT)
	for ti := range st.Templates {
		for cur := ti; walk[cur] == 0; {
			walk[cur] = ti + 1
			ts := &st.Templates[cur]
			if !ts.Dead || ts.Forward < 0 {
				break
			}
			if cur = ts.Forward; walk[cur] == ti+1 {
				return fmt.Errorf("stream: template %d: forward chain cycles", ti)
			}
		}
	}
	pending := 0
	for id, v := range st.Verdicts {
		if v < verdictPending || int(v) >= nT {
			return fmt.Errorf("stream: document %d: verdict %d outside [-2, %d)", id, v, nT)
		}
		if v == verdictPending {
			pending++
		}
	}
	for i, p := range st.Pending {
		if p.ID < 0 || p.ID >= len(st.Verdicts) || st.Verdicts[p.ID] != verdictPending ||
			(i > 0 && p.ID <= st.Pending[i-1].ID) {
			return fmt.Errorf("stream: pending document %d is not an ascending id marked pending", p.ID)
		}
	}
	if len(st.Pending) != pending {
		return fmt.Errorf("stream: %d documents marked pending, %d in the pending buffer", pending, len(st.Pending))
	}
	for _, rd := range st.Retained {
		if rd.ID < 0 || rd.ID >= len(st.Verdicts) || st.Verdicts[rd.ID] != verdictNoise {
			return fmt.Errorf("stream: retained document %d is not an id marked noise", rd.ID)
		}
	}
	return nil
}
