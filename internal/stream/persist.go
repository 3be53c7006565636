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
// replay is deterministic — it does not reproduce the pre-crash process
// byte-for-byte (vocabulary ids, and with them phrase hashes, are
// re-assigned at load). Earlier versions (1: templates only; 2: no
// verdicts; 3: words spelled out per token) are rejected.
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

// wordTable numbers vocabulary ids by first use while Save walks the
// state, and accumulates the Words blob.
type wordTable struct {
	vocab *tokenize.Vocab
	ref   []uint32 // vocabulary id → table entry + 1; 0 until first use
	n     uint32
	words []byte
}

// appendToken appends tok's table reference to b, adding the word to the
// table on first use.
func (wt *wordTable) appendToken(b []byte, tok int) []byte {
	if wt.ref[tok] == 0 {
		w := wt.vocab.Word(tok)
		wt.words = binary.AppendUvarint(wt.words, uint64(len(w)))
		wt.words = append(wt.words, w...)
		wt.n++
		wt.ref[tok] = wt.n
	}
	return binary.AppendUvarint(b, uint64(wt.ref[tok]))
}

// Save serializes the detector: templates (including lifecycle
// tombstones), the pending buffer, the incremental miner's retained
// window, and every document's verdict — nothing is lost without a
// flush. Records are written straight from the template arenas.
func (d *Detector) Save(w io.Writer) error {
	wt := wordTable{vocab: d.vocab, ref: make([]uint32, d.vocab.Size())}
	tb := countPrefix(len(d.templates))
	for ti := range d.templates {
		t := &d.templates[ti]
		tb = binary.AppendUvarint(tb, uint64(t.DocCount))
		tb = binary.AppendVarint(tb, int64(d.lastMatch[ti]))
		if d.isDead(ti) {
			tb = binary.AppendUvarint(tb, uint64(d.forward[ti]+2))
			continue
		}
		tb = append(tb, 0)
		tb = binary.AppendUvarint(tb, uint64(len(t.Tokens)))
		for i, tok := range t.Tokens {
			if t.Wild[i] {
				tb = append(tb, 0)
				continue
			}
			tb = wt.appendToken(tb, tok)
		}
	}
	var rb []byte
	if d.mine != nil {
		rb = countPrefix(len(d.mine.docs))
		for i := range d.mine.docs {
			doc := &d.mine.docs[i]
			rb = binary.AppendUvarint(rb, uint64(doc.id))
			rb = binary.AppendUvarint(rb, uint64(d.mine.epoch-doc.epoch))
			rb = binary.AppendUvarint(rb, uint64(len(doc.toks)))
			for _, tok := range doc.toks {
				rb = wt.appendToken(rb, tok)
			}
		}
	}
	vb := countPrefix(len(d.verdicts))
	for _, v := range d.verdicts {
		vb = binary.AppendVarint(vb, int64(v))
	}
	st := stateV4{
		Version:   stateVersion,
		Words:     append(countPrefix(int(wt.n)), wt.words...),
		Templates: tb,
		Retained:  rb,
		Verdicts:  vb,
	}
	for i, text := range d.pendingTexts {
		st.Pending = append(st.Pending, pendingState{ID: d.pendingIDs[i], Text: text})
	}
	return json.NewEncoder(w).Encode(&st)
}

// countPrefix starts a blob of n records with its count. A blob of no
// records is empty, and its field is omitted.
func countPrefix(n int) []byte {
	if n == 0 {
		return nil
	}
	return binary.AppendUvarint(nil, uint64(n))
}

// Load restores state saved by Save into a (typically fresh) detector,
// merging after any templates it already holds. Document counts,
// recency clocks and verdicts resume from the saved values. The tiered
// index, slot vectors, DF table, and phrase selections are derived
// state, not persisted: templates re-enter through register, pending
// texts re-tokenize, and the retained window re-extracts — all
// deterministic functions of the file, so a restored detector replays a
// write-ahead log to the same verdicts every time. Vocabulary ids are
// assigned on a word's first use, walking the templates, then the
// pending texts, then the retained window, so the vocabulary size and
// every posting come out as if each token had been added in that order.
//
// A state carrying documents or tombstones describes a whole detector —
// its verdicts and forward pointers index its own templates by position
// — and only loads into an empty one; template-only states merge
// anywhere. The file is outside input: Load rejects it, before changing
// anything, unless every blob decodes exactly, every index in it is in
// range and every forward chain ends.
func (d *Detector) Load(r io.Reader) error {
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
	whole := len(ds.verdicts) > 0 || ds.anyDead
	if whole && (len(d.templates) > 0 || len(d.verdicts) > 0) {
		return fmt.Errorf("stream: a state carrying documents or tombstones loads only into an empty detector")
	}

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
	d.verdicts = append(d.verdicts, ds.verdicts...)
	d.reserve(len(ds.templates))
	// decode rejected table entries no token uses, so this hint never
	// exceeds the state's token count.
	d.vocab.Reserve(len(ds.words))
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
	for _, p := range st.Pending {
		d.pendingTexts = append(d.pendingTexts, p.Text)
		d.pendingToks = append(d.pendingToks, d.vocab.Encode(d.tk.Tokens(p.Text)))
		d.pendingIDs = append(d.pendingIDs, p.ID)
	}
	if len(ds.retained) > 0 {
		rtoks := make([][]int, len(ds.retained))
		for i, rd := range ds.retained {
			rtoks[i] = make([]int, rd.hi-rd.lo)
			for j, ref := range ds.refs[rd.lo:rd.hi] {
				rtoks[i][j] = vocabID(ref)
			}
		}
		// Selections are recomputed against the restored window — a
		// deterministic function of the file, like everything above.
		ms := &mineState{}
		sels := ms.admit(rtoks, len(rtoks), d.mineExtractor(), d.vocab)
		slab := make([]uint64, len(ms.phr.All())+len(ms.sel))
		for i, rd := range ds.retained {
			slab = ms.retain(slab, i, rd.id, rtoks[i], sels[i], -rd.age)
		}
		d.mine = ms
	}
	return nil
}

// decodedState is a state's blobs decoded and bounds-checked, before any
// of it touches the detector. Template and retained tokens share refs,
// holding word-table entry + 1, or 0 for a slot.
type decodedState struct {
	words     []string
	templates []savedTemplate
	retained  []savedDoc
	refs      []uint32
	verdicts  []int32
	pending   []pendingState
	anyDead   bool
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
			ds.anyDead = true
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
