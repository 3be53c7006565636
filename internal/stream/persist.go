package stream

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"infoshield/internal/tokenize"
)

// stateV4 is the on-disk detector representation: templates (live and
// lifecycle tombstones, with recency clocks and merge forward pointers),
// the pending buffer (texts + ids — so snapshotting does not require a
// flush), the incremental miner's retained window, and every document's
// verdict. The verdict column's length is the next document id.
//
// The document is JSON, but its bulk is base64 varint blobs. Each blob
// starts with uvarint(record count) and ends with its last record; a blob
// of no records is omitted.
//
//   - Words is the word table: every word a template constant or a
//     retained document uses, once, in first-use order over the live
//     templates and then the retained window. Each entry is
//     uvarint(len) followed by the word's bytes.
//   - Templates holds one record per template slot: uvarint(doc_count),
//     varint(last_match), then uvarint(0) for a live template or
//     uvarint(forward+2) for a tombstone. A live record goes on with
//     uvarint(length) and that many tokens. A token is uvarint(k+1) for
//     word-table entry k, or 0 for a slot.
//   - Retained holds one record per window document: uvarint(id),
//     uvarint(age in flush epochs), uvarint(length) and the tokens, in the
//     template encoding (a retained document has no slots).
//   - Verdicts holds one varint per document: a raw template index, -1
//     (noise) or -2 (pending).
//
// Tokens are stored as words, not vocabulary ids, and the table is
// ordered by use, so the bytes do not depend on the saving process's
// vocabulary. At 100k templates the file is about 77 bytes per template,
// against 263 for the version-3 layout that spelled every token out as a
// JSON string. Derived state (the tiered index, slot vectors, DF table,
// phrase selections) is rebuilt deterministically at load. Restored
// state is a pure function of the file, so snapshot + write-ahead-log
// replay is deterministic. Load re-assigns vocabulary ids (and with them
// phrase hashes and the vocabulary size V) to the live words only, which
// is exactly what the lifecycle's vocabulary compaction does in process:
// both run restore, so a restart reproduces a process that has just
// compacted id for id (TestCompactRestartEquivalence). Earlier versions
// (1: templates only; 2: no verdicts; 3: words spelled out per token)
// are rejected.
type stateV4 struct {
	Version   int            `json:"version"`
	Words     []byte         `json:"words,omitempty"`
	Templates []byte         `json:"templates,omitempty"`
	Pending   []pendingState `json:"pending,omitempty"`
	Retained  []byte         `json:"retained,omitempty"`
	Verdicts  []byte         `json:"verdicts,omitempty"`
}

type pendingState struct {
	ID   int    `json:"id"`
	Text string `json:"text"`
}

// stateVersion is the only state version Load reads.
const stateVersion = 4

// wordTable numbers vocabulary ids by first use while capture walks
// the state. Its words alias the vocabulary's arena.
type wordTable struct {
	vocab *tokenize.Vocab
	ids   []uint32 // vocabulary id → table entry + 1; 0 until first use
	words []string
}

// ref returns tok's table reference, adding the word on first use.
func (wt *wordTable) ref(tok int) uint32 {
	if wt.ids[tok] == 0 {
		wt.words = append(wt.words, wt.vocab.Word(tok))
		wt.ids[tok] = uint32(len(wt.words))
	}
	return wt.ids[tok]
}

// capture builds the detector's state as decode would read it back:
// templates (including lifecycle tombstones), the pending buffer, the
// incremental miner's retained window and every document's verdict, with
// each token a reference into a word table numbered by first use over
// the live templates and then the window. The words alias the
// vocabulary, and the verdict column is the detector's own, not a copy.
func (d *Detector) capture() *decodedState {
	wt := wordTable{vocab: d.vocab, ids: make([]uint32, d.vocab.Size())}
	ds := &decodedState{verdicts: d.verdicts}
	n := 0
	for ti := range d.templates {
		n += len(d.templates[ti].Tokens)
	}
	if d.mine != nil {
		for i := range d.mine.docs {
			n += len(d.mine.docs[i].toks)
		}
	}
	ds.refs = make([]uint32, 0, n)
	wt.words = make([]string, 0, min(n, d.vocab.Size()))
	ds.templates = make([]savedTemplate, len(d.templates))
	for ti := range d.templates {
		t := &d.templates[ti]
		ts := &ds.templates[ti]
		*ts = savedTemplate{docCount: t.DocCount, lastMatch: d.lastMatch[ti], forward: -1}
		if d.isDead(ti) {
			ts.dead, ts.forward = true, int(d.forward[ti])
			continue
		}
		ts.lo = len(ds.refs)
		for i, tok := range t.Tokens {
			if t.Wild[i] {
				ds.refs = append(ds.refs, 0)
				continue
			}
			ds.refs = append(ds.refs, wt.ref(tok))
		}
		ts.hi = len(ds.refs)
	}
	if d.mine != nil {
		ds.retained = make([]savedDoc, len(d.mine.docs))
		for i := range d.mine.docs {
			doc := &d.mine.docs[i]
			rd := savedDoc{id: doc.id, age: d.mine.epoch - doc.epoch, lo: len(ds.refs)}
			for _, tok := range doc.toks {
				ds.refs = append(ds.refs, wt.ref(tok))
			}
			rd.hi = len(ds.refs)
			ds.retained[i] = rd
		}
	}
	ds.words = wt.words
	ds.pending = make([]pendingState, len(d.pendingTexts))
	for i, text := range d.pendingTexts {
		ds.pending[i] = pendingState{ID: d.pendingIDs[i], Text: text}
	}
	return ds
}

// encode lays the state out in the version-4 blobs. Each blob is sized
// up front for the common varint widths (a word reference under 2²¹
// takes at most 3 bytes), so encoding a large state does not regrow it.
func (ds *decodedState) encode() *stateV4 {
	st := &stateV4{Version: stateVersion, Pending: ds.pending}
	wordBytes := 0
	for _, w := range ds.words {
		wordBytes += len(w)
	}
	st.Words = countPrefix(len(ds.words), wordBytes+2*len(ds.words))
	for _, w := range ds.words {
		st.Words = binary.AppendUvarint(st.Words, uint64(len(w)))
		st.Words = append(st.Words, w...)
	}
	split := len(ds.refs) // template references precede the window's
	if len(ds.retained) > 0 {
		split = ds.retained[0].lo
	}
	st.Templates = countPrefix(len(ds.templates), 12*len(ds.templates)+3*split)
	for _, ts := range ds.templates {
		st.Templates = binary.AppendUvarint(st.Templates, uint64(ts.docCount))
		st.Templates = binary.AppendVarint(st.Templates, int64(ts.lastMatch))
		if ts.dead {
			st.Templates = binary.AppendUvarint(st.Templates, uint64(ts.forward+2))
			continue
		}
		st.Templates = append(st.Templates, 0)
		st.Templates = appendRefs(st.Templates, ds.refs[ts.lo:ts.hi])
	}
	st.Retained = countPrefix(len(ds.retained), 8*len(ds.retained)+3*(len(ds.refs)-split))
	for _, rd := range ds.retained {
		st.Retained = binary.AppendUvarint(st.Retained, uint64(rd.id))
		st.Retained = binary.AppendUvarint(st.Retained, uint64(rd.age))
		st.Retained = appendRefs(st.Retained, ds.refs[rd.lo:rd.hi])
	}
	st.Verdicts = countPrefix(len(ds.verdicts), 2*len(ds.verdicts))
	for _, v := range ds.verdicts {
		st.Verdicts = binary.AppendVarint(st.Verdicts, int64(v))
	}
	return st
}

// appendRefs appends a record's token count and its references.
func appendRefs(b []byte, refs []uint32) []byte {
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for _, ref := range refs {
		b = binary.AppendUvarint(b, uint64(ref))
	}
	return b
}

// Save serializes the detector: templates (including lifecycle
// tombstones), the pending buffer, the incremental miner's retained
// window, and every document's verdict — nothing is lost without a
// flush. It encodes exactly the state Load restores (see capture).
func (d *Detector) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(d.capture().encode())
}

// countPrefix starts a blob of n records with its count, with room for
// size more bytes. A blob of no records is empty, and its field is
// omitted.
func countPrefix(n, size int) []byte {
	if n == 0 {
		return nil
	}
	return binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+size), uint64(n))
}

// Load restores state saved by Save into an empty detector (no
// templates, no documents); see restore. A state describes a whole
// detector — its verdicts and forward pointers index its own templates
// by position — so Load never merges one into another. The file is
// outside input: Load rejects it, before changing anything, unless every
// blob decodes exactly, every index in it is in range and every forward
// chain ends.
func (d *Detector) Load(r io.Reader) error {
	if len(d.templates) > 0 || len(d.verdicts) > 0 {
		return fmt.Errorf("stream: state loads only into an empty detector, not one holding %d templates and %d documents",
			len(d.templates), len(d.verdicts))
	}
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("stream: read state: %w", err)
	}
	var st stateV4
	if err := json.Unmarshal(b, &st); err != nil {
		// An older layout fails to decode as this one; name its version.
		var head struct{ Version int }
		if json.Unmarshal(b, &head) == nil && head.Version != stateVersion {
			return fmt.Errorf("stream: unsupported state version %d", head.Version)
		}
		return fmt.Errorf("stream: decode state: %w", err)
	}
	if st.Version != stateVersion {
		return fmt.Errorf("stream: unsupported state version %d", st.Version)
	}
	ds, err := st.decode()
	if err != nil {
		return err
	}
	if err := ds.validate(); err != nil {
		return err
	}
	d.restore(ds)
	return nil
}

// restore builds a decoded (or captured) state into an empty detector.
// It is the only code that assigns vocabulary ids to restored state, and
// both Load and compaction run it. Document counts, recency clocks and
// verdicts resume from the state's values; the verdict column is taken
// over, not copied. The tiered index, slot vectors, DF table, and phrase
// selections are derived state: templates re-enter through register,
// pending texts re-tokenize, and the retained window re-extracts — all
// deterministic functions of the state, so a restored detector replays
// a write-ahead log to the same verdicts every time. Vocabulary ids are
// assigned on a word's first use, walking the templates, then the
// pending texts, then the retained window, so the vocabulary size and
// every posting come out as if each token had been added in that order.
func (d *Detector) restore(ds *decodedState) {
	// ids maps a word-table entry to its vocabulary id + 1, assigned on
	// first use.
	ids := make([]int32, len(ds.words))
	vocabID := func(ref uint32) int {
		k := ref - 1
		if ids[k] == 0 {
			ids[k] = int32(d.vocab.Add(ds.words[k])) + 1
		}
		return int(ids[k]) - 1
	}
	d.verdicts = ds.verdicts
	// The live templates carry at most every word of the table and at
	// most one word per token.
	refs := 0
	for _, ts := range ds.templates {
		if !ts.dead {
			refs += ts.hi - ts.lo
		}
	}
	d.reserve(len(ds.templates), min(len(ds.words), refs))
	// Every table entry is used by some token (decode rejects one that
	// is not, and capture lists only used words), so this hint never
	// exceeds the state's token count.
	wordBytes := 0
	for _, w := range ds.words {
		wordBytes += len(w)
	}
	d.vocab.Reserve(len(ds.words), wordBytes)
	var toks []int
	var wild []bool
	for _, ts := range ds.templates {
		if ts.dead {
			d.templates = append(d.templates, Template{DocCount: ts.docCount})
			d.dead = append(d.dead, true)
			d.forward = append(d.forward, int32(ts.forward))
			d.lastMatch = append(d.lastMatch, ts.lastMatch)
			d.anyDead = true
			d.index.addDead()
			continue
		}
		// register copies the payload into the arenas, so the scratch is
		// reused across templates.
		toks, wild = toks[:0], wild[:0]
		for _, ref := range ds.refs[ts.lo:ts.hi] {
			if ref == 0 {
				toks, wild = append(toks, 0), append(wild, true)
				continue
			}
			toks, wild = append(toks, vocabID(ref)), append(wild, false)
		}
		i := len(d.templates)
		d.register(Template{Tokens: toks, Wild: wild, DocCount: ts.docCount})
		d.lastMatch[i] = ts.lastMatch
	}
	for _, p := range ds.pending {
		d.pendingTexts = append(d.pendingTexts, p.Text)
		d.pendingToks = append(d.pendingToks, d.vocab.Encode(d.tk.Tokens(p.Text)))
		d.pendingIDs = append(d.pendingIDs, p.ID)
	}
	if len(ds.retained) > 0 {
		rtoks := make([][]int, len(ds.retained))
		flat := make([]int, ds.retained[len(ds.retained)-1].hi-ds.retained[0].lo)
		for i, rd := range ds.retained {
			rtoks[i], flat = flat[:rd.hi-rd.lo:rd.hi-rd.lo], flat[rd.hi-rd.lo:]
			for j, ref := range ds.refs[rd.lo:rd.hi] {
				rtoks[i][j] = vocabID(ref)
			}
		}
		// Selections are recomputed against the restored window — a
		// deterministic function of the state, like everything above.
		// Compaction hands over the old window's emptied tables, so
		// re-admitting the window does not regrow them.
		ms := d.mine
		if ms == nil {
			ms = &mineState{}
		}
		sels := ms.admit(rtoks, len(rtoks), d.mineExtractor(), d.vocab)
		slab := make([]uint64, len(ms.phr.All())+len(ms.sel))
		for i, rd := range ds.retained {
			slab = ms.retain(slab, i, rd.id, rtoks[i], sels[i], -rd.age)
		}
		d.mine = ms
	}
	d.vocabKept = d.vocab.Size()
}

// decodedState is a detector's state independent of its vocabulary ids:
// either a file's blobs decoded and bounds-checked, before any of it
// touches the detector, or a live detector's capture. Template and
// retained tokens share refs, holding word-table entry + 1, or 0 for a
// slot.
type decodedState struct {
	words     []string
	templates []savedTemplate
	retained  []savedDoc
	refs      []uint32
	verdicts  []int32
	pending   []pendingState
}

type savedTemplate struct {
	docCount, lastMatch int
	dead                bool
	forward             int // merge successor of a tombstone, -1 for none
	lo, hi              int // tokens: refs[lo:hi]
}

type savedDoc struct {
	id, age int
	lo, hi  int // tokens: refs[lo:hi]
}

// blob reads one field's varints. The first error sticks, and every
// later read returns 0.
type blob struct {
	b     []byte
	field string
	err   error
}

func (r *blob) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("stream: state %s: "+format, append([]any{r.field}, args...)...)
	}
	r.b = nil
}

func (r *blob) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *blob) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a uvarint that must fit an int.
func (r *blob) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail("value %d overflows", v)
		return 0
	}
	return int(v)
}

// length reads a count of items that take at least minBytes bytes each,
// so it can be no larger than what remains of the blob allows: a forged
// length fails here instead of sizing an allocation.
func (r *blob) length(minBytes int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/minBytes) {
		r.fail("length %d exceeds the %d bytes left", v, len(r.b))
		return 0
	}
	return int(v)
}

// count reads the blob's leading record count; an empty blob holds none.
func (r *blob) count(minBytes int) int {
	if len(r.b) == 0 {
		return 0
	}
	return r.length(minBytes)
}

// end rejects bytes left after the last record.
func (r *blob) end() error {
	if n := len(r.b); r.err == nil && n > 0 {
		r.fail("%d trailing bytes", n)
	}
	return r.err
}

// tokens appends a record's n tokens to refs. Every reference must name
// a word-table entry; a slot (0) is allowed only when slots is set.
func (r *blob) tokens(refs []uint32, n, nWords int, slots bool) []uint32 {
	for j := 0; j < n && r.err == nil; j++ {
		ref := r.uvarint()
		if ref > uint64(nWords) {
			r.fail("word index %d outside the word table of %d", ref-1, nWords)
			break
		}
		if ref == 0 && !slots {
			r.fail("slot in a document")
			break
		}
		refs = append(refs, uint32(ref))
	}
	return refs
}

// decode parses every blob of the state. It checks the encoding — whole
// varints, counts and lengths within the blob, no trailing bytes, token
// references inside the word table, no table entry left unused — and
// each verdict's range before it narrows to int32, but not the
// cross-references validate checks.
func (st *stateV4) decode() (*decodedState, error) {
	ds := &decodedState{pending: st.Pending}

	wr := blob{b: st.Words, field: "words"}
	all := string(st.Words) // one copy; every word is a substring of it
	ds.words = make([]string, 0, wr.count(1))
	for len(ds.words) < cap(ds.words) {
		n := wr.length(1)
		if wr.err != nil {
			break
		}
		off := len(all) - len(wr.b)
		ds.words = append(ds.words, all[off:off+n])
		wr.b = wr.b[n:]
	}
	if err := wr.end(); err != nil {
		return nil, err
	}

	// Tokens are a subset of the varints, so refs is sized once.
	ds.refs = make([]uint32, 0, varints(st.Templates)+varints(st.Retained))
	tr := blob{b: st.Templates, field: "templates"}
	ds.templates = make([]savedTemplate, 0, tr.count(3))
	for len(ds.templates) < cap(ds.templates) && tr.err == nil {
		ts := savedTemplate{docCount: tr.int(), lastMatch: int(tr.varint()), forward: -1}
		if f := tr.int(); f > 0 {
			ts.dead, ts.forward = true, f-2
		} else {
			n := tr.length(1)
			ts.lo = len(ds.refs)
			ds.refs = tr.tokens(ds.refs, n, len(ds.words), true)
			ts.hi = len(ds.refs)
		}
		ds.templates = append(ds.templates, ts)
	}
	if err := tr.end(); err != nil {
		return nil, err
	}

	rr := blob{b: st.Retained, field: "retained"}
	ds.retained = make([]savedDoc, 0, rr.count(3))
	for len(ds.retained) < cap(ds.retained) && rr.err == nil {
		rd := savedDoc{id: rr.int(), age: rr.int()}
		n := rr.length(1)
		rd.lo = len(ds.refs)
		ds.refs = rr.tokens(ds.refs, n, len(ds.words), false)
		rd.hi = len(ds.refs)
		ds.retained = append(ds.retained, rd)
	}
	if err := rr.end(); err != nil {
		return nil, err
	}
	// Save lists only words a token uses, and Load sizes the vocabulary
	// from the table, so an entry no token uses is rejected.
	used := make([]bool, len(ds.words))
	for _, ref := range ds.refs {
		if ref > 0 {
			used[ref-1] = true
		}
	}
	if k := slices.Index(used, false); k >= 0 {
		return nil, fmt.Errorf("stream: state words: entry %d is never used", k)
	}

	vr := blob{b: st.Verdicts, field: "verdicts"}
	ds.verdicts = make([]int32, 0, vr.count(1))
	for len(ds.verdicts) < cap(ds.verdicts) && vr.err == nil {
		v := vr.varint()
		if vr.err != nil {
			break
		}
		if v < verdictPending || v >= int64(len(ds.templates)) {
			return nil, fmt.Errorf("stream: document %d: verdict %d outside [-2, %d)",
				len(ds.verdicts), v, len(ds.templates))
		}
		ds.verdicts = append(ds.verdicts, int32(v))
	}
	if err := vr.end(); err != nil {
		return nil, err
	}
	return ds, nil
}

// varints counts the varints b holds: each ends in the one byte below
// 0x80.
func varints(b []byte) int {
	n := 0
	for _, c := range b {
		if c < 0x80 {
			n++
		}
	}
	return n
}

// validate checks the state's internal references: the pending and
// retained ids against the verdict column, and the tombstones' forward
// pointers. A forward cycle would spin resolve forever while it holds
// the commit lock's read side, so chains must end.
func (ds *decodedState) validate() error {
	nT := len(ds.templates)
	for ti := range ds.templates {
		ts := &ds.templates[ti]
		if ts.dead && ts.forward >= nT {
			return fmt.Errorf("stream: template %d: forward %d outside [-1, %d)", ti, ts.forward, nT)
		}
	}
	// walk[ti] is 1 + the template whose chain walk first reached ti;
	// each template is walked once, so the check is linear.
	walk := make([]int, nT)
	for ti := range ds.templates {
		for cur := ti; walk[cur] == 0; {
			walk[cur] = ti + 1
			ts := &ds.templates[cur]
			if !ts.dead || ts.forward < 0 {
				break
			}
			if cur = ts.forward; walk[cur] == ti+1 {
				return fmt.Errorf("stream: template %d: forward chain cycles", ti)
			}
		}
	}
	pending := 0
	for _, v := range ds.verdicts {
		if v == verdictPending {
			pending++
		}
	}
	for i, p := range ds.pending {
		if p.ID < 0 || p.ID >= len(ds.verdicts) || ds.verdicts[p.ID] != verdictPending ||
			(i > 0 && p.ID <= ds.pending[i-1].ID) {
			return fmt.Errorf("stream: pending document %d is not an ascending id marked pending", p.ID)
		}
	}
	if len(ds.pending) != pending {
		return fmt.Errorf("stream: %d documents marked pending, %d in the pending buffer", pending, len(ds.pending))
	}
	for _, rd := range ds.retained {
		if rd.id >= len(ds.verdicts) || ds.verdicts[rd.id] != verdictNoise {
			return fmt.Errorf("stream: retained document %d is not an id marked noise", rd.id)
		}
	}
	return nil
}
