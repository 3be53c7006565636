package stream

import (
	"encoding/json"
	"fmt"
	"io"

	"infoshield/internal/tfidf"
)

// stateV2 is the on-disk detector representation: templates (live and
// lifecycle tombstones, with recency clocks and merge forward pointers),
// the document-id high-water mark, the pending buffer (texts + ids — so
// snapshotting no longer requires a flush), and the incremental miner's
// retained window. Tokens are stored as words (not vocabulary ids) so
// state survives across processes with different vocabularies; derived
// state (the tiered index, slot vectors, DF table, phrase selections) is
// rebuilt deterministically at load. Restored state is a pure function
// of the file, so snapshot + write-ahead-log replay is deterministic —
// it does not reproduce the pre-crash process byte-for-byte (vocabulary
// ids, and with them phrase hashes, are re-assigned at load). Version 1
// (templates only) predates every deployment and is rejected.
type stateV2 struct {
	Version   int               `json:"version"`
	NextID    int               `json:"next_id,omitempty"`
	Templates []templateStateV2 `json:"templates"`
	Pending   []pendingStateV2  `json:"pending,omitempty"`
	Retained  []retainedStateV2 `json:"retained,omitempty"`
}

type templateStateV2 struct {
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

type pendingStateV2 struct {
	ID   int    `json:"id"`
	Text string `json:"text"`
}

type retainedStateV2 struct {
	ID  int `json:"id"`
	Age int `json:"age"` // flush epochs since arrival
	// Words is the tokenized document (tokens never contain whitespace,
	// so the stream re-encodes without re-tokenizing).
	Words []string `json:"words"`
}

// Save serializes the detector: templates (including lifecycle
// tombstones), the id high-water mark, the pending buffer, and the
// incremental miner's retained window — nothing is lost without a
// flush. Assignments of already-ingested documents are not serialized
// (ids are resolved through the write-ahead log at the serving layer).
func (d *Detector) Save(w io.Writer) error {
	st := stateV2{Version: 2, NextID: d.nextID}
	for ti := range d.templates {
		t := &d.templates[ti]
		if d.isDead(ti) {
			st.Templates = append(st.Templates, templateStateV2{
				DocCount:  t.DocCount,
				LastMatch: d.lastMatch[ti],
				Dead:      true,
				Forward:   int(d.forward[ti]),
			})
			continue
		}
		ts := templateStateV2{
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
		st.Pending = append(st.Pending, pendingStateV2{ID: d.pendingIDs[i], Text: text})
	}
	if d.mine != nil {
		for i := range d.mine.docs {
			doc := &d.mine.docs[i]
			words := make([]string, len(doc.toks))
			for j, tok := range doc.toks {
				words[j] = d.vocab.Word(tok)
			}
			st.Retained = append(st.Retained, retainedStateV2{
				ID:    doc.id,
				Age:   d.mine.epoch - doc.epoch,
				Words: words,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&st)
}

// Load restores state saved by Save into a (typically fresh) detector, merging after any templates it already
// holds. Document counts and recency clocks resume from the saved
// values. The tiered index, slot vectors, DF table, and phrase
// selections are derived state, not persisted: templates re-enter
// through register, pending texts re-tokenize, and the retained window
// re-extracts — all deterministic functions of the file, so a restored
// detector replays a write-ahead log to the same verdicts every time.
//
// A state carrying documents (a high-water mark, pending buffer, or
// retained window) describes a whole detector and only loads into one
// that has not ingested anything; template-only states merge anywhere.
func (d *Detector) Load(r io.Reader) error {
	var st stateV2
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("stream: decode state: %w", err)
	}
	if st.Version != 2 {
		return fmt.Errorf("stream: unsupported state version %d", st.Version)
	}
	if (st.NextID > 0 || len(st.Pending) > 0 || len(st.Retained) > 0) && d.ingested {
		return fmt.Errorf("stream: loading detector state after documents were ingested")
	}
	if st.NextID > d.nextID {
		d.nextID = st.NextID
	}
	for ti, ts := range st.Templates {
		if ts.Dead {
			d.templates = append(d.templates, Template{DocCount: ts.DocCount})
			d.dead = append(d.dead, true)
			d.forward = append(d.forward, int32(ts.Forward))
			d.lastMatch = append(d.lastMatch, ts.LastMatch)
			d.anyDead = true
			d.index.addDead()
			continue
		}
		if len(ts.Words) != len(ts.Wild) {
			return fmt.Errorf("stream: template %d: %d words vs %d wild flags",
				ti, len(ts.Words), len(ts.Wild))
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
		if p.ID < 0 {
			return fmt.Errorf("stream: pending document with negative id %d", p.ID)
		}
		toks := d.vocab.Encode(d.tk.Tokens(p.Text))
		d.pendingSet[p.ID] = len(d.pendingIDs)
		d.pendingTexts = append(d.pendingTexts, p.Text)
		d.pendingToks = append(d.pendingToks, toks)
		d.pendingIDs = append(d.pendingIDs, p.ID)
		if p.ID >= d.nextID {
			d.nextID = p.ID + 1
		}
	}
	if len(st.Retained) > 0 {
		toks := make([][]int, len(st.Retained))
		for i, rd := range st.Retained {
			if rd.ID < 0 {
				return fmt.Errorf("stream: retained document with negative id %d", rd.ID)
			}
			toks[i] = d.vocab.Encode(rd.Words)
			if rd.ID >= d.nextID {
				d.nextID = rd.ID + 1
			}
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
