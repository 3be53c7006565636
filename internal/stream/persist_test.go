package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"infoshield/internal/align"
	"infoshield/internal/core"
)

// refPosting mirrors one postings entry for the from-scratch rebuild the
// tests compare the incrementally-maintained tiered index against.
type refPosting struct{ template, count int }

// expectedIndex recomputes, independently of the index code, everything a
// probe reads: token → postings (template ascending, as registration
// appends), the saturated-token set, and the per-bucket membership.
// Templates whose meta bucket is -1 never entered the current index
// build (dead slots restored by Load or a compaction) and are excluded;
// tombstones killed since the last compaction still hold postings and
// membership, exactly as the live index does.
func expectedIndex(d *Detector) (post map[int][]refPosting, sat map[int]bool, members [numBuckets][]int32) {
	templates := d.templates
	post = make(map[int][]refPosting)
	for ti := range templates {
		if d.index.meta[ti].bucket < 0 {
			continue
		}
		t := &templates[ti]
		counts := make(map[int]int)
		order := make([]int, 0, len(t.Tokens))
		slots := 0
		for i, tok := range t.Tokens {
			if t.Wild[i] {
				slots++
				continue
			}
			if counts[tok] == 0 {
				order = append(order, tok)
			}
			counts[tok]++
		}
		align.SortInts(order)
		for _, tok := range order {
			post[tok] = append(post[tok], refPosting{template: ti, count: counts[tok]})
		}
		b := bucketOf(len(t.Tokens) - slots)
		members[b] = append(members[b], int32(ti))
	}
	sat = make(map[int]bool)
	for tok, ps := range post {
		if len(ps) > satThreshold {
			sat[tok] = true
			delete(post, tok)
		}
	}
	return post, sat, members
}

// checkIndex requires the live tiered index — postings chains, saturation
// marks, bucket membership and aggregates, and the per-template matcher
// metadata including the bit-parallel mask tables — to equal a
// from-scratch recomputation.
func checkIndex(t *testing.T, label string, d *Detector) {
	t.Helper()
	wantPost, wantSat, wantMembers := expectedIndex(d)

	// Walk the token table: every occupied slot must be the one find
	// reaches for its token (no duplicate key, no empty slot inside a
	// probe run), and the occupied count must match used.
	got := make(map[int][]refPosting)
	st := &d.index.store
	if len(st.chains) != len(st.slots) {
		t.Fatalf("%s: %d chains for %d slots", label, len(st.chains), len(st.slots))
	}
	occupied := 0
	for i, s := range st.slots {
		if s.key == 0 {
			continue
		}
		occupied++
		tok := int(s.key) - 1
		if f := st.find(tok); f != i {
			t.Fatalf("%s: token %d sits in slot %d but find reaches %d", label, tok, i, f)
		}
		h := st.chains[i].head
		if s.bits&satBit != 0 {
			if !wantSat[tok] {
				t.Fatalf("%s: token %d saturated in index but carried by ≤ %d templates",
					label, tok, satThreshold)
			}
			continue
		}
		if h == noHead {
			t.Fatalf("%s: token %d holds a slot but no postings", label, tok)
		}
		for ci := h; ci != noHead; ci = st.chunks[ci].next {
			ch := &st.chunks[ci]
			for k := 0; k < int(ch.n); k++ {
				x := int(ch.tmpl[k])
				if int(ch.bucket) != int(d.index.meta[x].bucket) {
					t.Fatalf("%s: token %d chunk bucket %d holds template %d of bucket %d",
						label, tok, ch.bucket, x, d.index.meta[x].bucket)
				}
				got[tok] = append(got[tok], refPosting{template: x, count: int(ch.cnt[k])})
			}
		}
		if n := int(s.bits >> countShift); n != len(got[tok]) {
			t.Fatalf("%s: token %d counts %d postings, chain holds %d", label, tok, n, len(got[tok]))
		}
	}
	if occupied != st.used {
		t.Fatalf("%s: %d occupied slots, used says %d", label, occupied, st.used)
	}
	if len(wantPost) == 0 {
		wantPost = nil
	}
	if len(got) == 0 {
		got = nil
	}
	if !reflect.DeepEqual(got, wantPost) {
		t.Fatalf("%s: postings diverged from a full rebuild (%d vs %d tokens)",
			label, len(got), len(wantPost))
	}
	for tok := range wantSat {
		if i := st.find(tok); i < 0 || st.slots[i].bits != satBit || st.chains[i].head != noHead {
			t.Fatalf("%s: token %d carried by > %d templates but not saturated", label, tok, satThreshold)
		}
	}

	// The rare-token bitmap must equal a from-scratch recomputation: each
	// live token's bucket set is the OR of its carrying templates' buckets,
	// and saturated tokens carry the empty set (they are handled by the
	// credit path, not the bitmap). Unindexed tokens hold no slot, so a
	// probe's find misses them.
	for i, s := range st.slots {
		if s.key == 0 {
			if s.bits != 0 {
				t.Fatalf("%s: empty slot %d has bits %#x", label, i, s.bits)
			}
			continue
		}
		tok := int(s.key) - 1
		var want uint32
		for _, p := range wantPost[tok] {
			want |= 1 << uint(d.index.meta[p.template].bucket)
		}
		if bset := s.bits & (countOne - 1); bset != want {
			t.Fatalf("%s: token %d bucket bitmap %#x, rebuild says %#x",
				label, tok, bset, want)
		}
		live := st.chains[i].head != noHead
		if (s.bits&(countOne-1) != 0) != live {
			t.Fatalf("%s: token %d bits %#x inconsistent with head %d",
				label, tok, s.bits, st.chains[i].head)
		}
	}

	for b := range d.index.buckets {
		bi := &d.index.buckets[b]
		if !reflect.DeepEqual(bi.members, wantMembers[b]) {
			t.Fatalf("%s: bucket %d members %v, want %v", label, b, bi.members, wantMembers[b])
		}
		wantLive := 0
		for _, x := range bi.members {
			if !d.isDead(int(x)) {
				wantLive++
			}
		}
		if bi.live != wantLive {
			t.Fatalf("%s: bucket %d live %d, want %d", label, b, bi.live, wantLive)
		}
		if len(bi.members) == 0 {
			continue
		}
		cmax, rmin, smin, smax := 0, 1<<30, 1<<30, 0
		for _, x := range bi.members {
			mt := &d.index.meta[x]
			if c := int(mt.constCnt); c > cmax {
				cmax = c
			}
			if r := int(mt.refLen); r < rmin {
				rmin = r
			}
			if s := int(mt.slots); s < smin {
				smin = s
			}
			if s := int(mt.slots); s > smax {
				smax = s
			}
		}
		if bi.cmax != cmax || bi.rmin != rmin || bi.smin != smin || bi.smax != smax {
			t.Fatalf("%s: bucket %d aggregates (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				label, b, bi.cmax, bi.rmin, bi.smin, bi.smax, cmax, rmin, smin, smax)
		}
	}

	if len(d.index.meta) != len(d.templates) {
		t.Fatalf("%s: %d meta entries for %d templates", label, len(d.index.meta), len(d.templates))
	}
	for ti := range d.templates {
		tm := &d.templates[ti]
		mt := &d.index.meta[ti]
		if mt.bucket < 0 {
			// Compacted or restored tombstone: the payload must be gone too.
			if len(tm.Tokens) != 0 || !d.isDead(ti) {
				t.Fatalf("%s: template %d has bucket -1 but payload/live state", label, ti)
			}
			continue
		}
		slots := 0
		for _, w := range tm.Wild {
			if w {
				slots++
			}
		}
		if int(mt.refLen) != len(tm.Tokens) || int(mt.slots) != slots ||
			int(mt.constCnt) != len(tm.Tokens)-slots || int(mt.bucket) != bucketOf(len(tm.Tokens)-slots) {
			t.Fatalf("%s: template %d meta %+v inconsistent with template", label, ti, *mt)
		}
		if len(tm.Tokens) > align.WildBitCap {
			continue
		}
		wildMask, eqToks, eqMasks := align.WildEqMasks(tm.Tokens, tm.Wild)
		if mt.wildMask != wildMask || !reflect.DeepEqual(append([]int32{}, mt.eqToks...), append([]int32{}, eqToks...)) ||
			!reflect.DeepEqual(append([]uint64{}, mt.eqMasks...), append([]uint64{}, eqMasks...)) {
			t.Fatalf("%s: template %d mask table diverged from align.WildEqMasks", label, ti)
		}
	}
}

// TestPersistRoundTripVerdicts saves a detector that holds both mined
// templates and pending documents, loads it into a fresh process-alike,
// replays the pending buffer (Save persists templates only), and then
// requires every subsequent Add verdict — match, buffer, and post-Flush
// assignment — to agree with the never-persisted original. The rebuilt
// inverted index must equal a from-scratch recomputation on both sides.
func TestPersistRoundTripVerdicts(t *testing.T) {
	d1 := New(core.Options{})
	d1.BatchSize = 1 << 30
	d1.AddBatch(append(campaign(20), noise(300, 31)...))
	d1.Flush()
	if d1.NumTemplates() == 0 {
		t.Fatal("no template mined")
	}
	// Leave documents pending: a second campaign too small to have been
	// mined yet, plus fresh noise.
	var pendingTexts []string
	for i := 0; i < 6; i++ {
		pendingTexts = append(pendingTexts,
			fmt.Sprintf("grand winter raffle enter the diamond draw tonight code gw%04d only", i))
	}
	pendingTexts = append(pendingTexts, noise(40, 32)...)
	d1.AddBatch(pendingTexts)
	if d1.Pending() != len(pendingTexts) {
		t.Fatalf("pending = %d, want %d", d1.Pending(), len(pendingTexts))
	}

	var buf bytes.Buffer
	if err := d1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()

	d2 := New(core.Options{})
	d2.BatchSize = 1 << 30
	if err := d2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, "d1 after mining", d1)
	checkIndex(t, "d2 after load", d2)

	// Loaded templates serialize back to the identical state.
	var buf2 bytes.Buffer
	if err := d2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != saved {
		t.Fatal("save → load → save is not a fixed point")
	}

	// The pending buffer (texts and ids) travels with the state — no
	// replay needed. Require identical verdicts for a stream of new
	// documents spanning all three outcomes.
	if d1.Pending() != d2.Pending() {
		t.Fatalf("pending after load: %d vs %d", d2.Pending(), d1.Pending())
	}

	probes := []string{
		"limited offer buy the premium golden package today visit site8888.example now",
		"grand winter raffle enter the diamond draw tonight code gw9999 only",
		"completely unrelated musing about rivers and violins tonight",
		"limited offer buy the premium golden package today visit site8889.example now",
	}
	var ids1, ids2 []int
	for _, p := range probes {
		ids1 = append(ids1, d1.Add(p))
		ids2 = append(ids2, d2.Add(p))
	}
	for i := range probes {
		a1, a2 := d1.Assignment(ids1[i]), d2.Assignment(ids2[i])
		if a1 != a2 {
			t.Fatalf("probe %d: verdict %+v (original) vs %+v (loaded)", i, a1, a2)
		}
	}
	if d1.Pending() != d2.Pending() {
		t.Fatalf("pending %d vs %d", d1.Pending(), d2.Pending())
	}

	// Flush both: mining the identical buffer must mine identical
	// templates, keep the indexes rebuild-consistent, and give the new
	// documents matching assignments.
	d1.Flush()
	d2.Flush()
	if d1.NumTemplates() != d2.NumTemplates() {
		t.Fatalf("templates after flush: %d vs %d", d1.NumTemplates(), d2.NumTemplates())
	}
	for ti := range d1.templates {
		if d1.templates[ti].DocCount != d2.templates[ti].DocCount {
			t.Fatalf("template %d DocCount %d vs %d",
				ti, d1.templates[ti].DocCount, d2.templates[ti].DocCount)
		}
	}
	checkIndex(t, "d1 after second flush", d1)
	checkIndex(t, "d2 after second flush", d2)
	for i := range probes {
		if a1, a2 := d1.Assignment(ids1[i]), d2.Assignment(ids2[i]); a1 != a2 {
			t.Fatalf("probe %d after flush: %+v vs %+v", i, a1, a2)
		}
	}
}

// Builders for hand-made version-4 states; see stateV4 for the layout.

// uvarints concatenates the uvarint encodings of vs.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// records joins whole records into one count-prefixed blob.
func records(recs ...[]byte) []byte {
	b := uvarints(uint64(len(recs)))
	for _, r := range recs {
		b = append(b, r...)
	}
	return b
}

// wordBlob is the word table ws.
func wordBlob(ws ...string) []byte {
	b := uvarints(uint64(len(ws)))
	for _, w := range ws {
		b = append(binary.AppendUvarint(b, uint64(len(w))), w...)
	}
	return b
}

// liveRec is a live template record; refs holds word-table entry + 1 per
// constant and 0 per slot.
func liveRec(docCount, lastMatch int, refs ...uint64) []byte {
	b := binary.AppendVarint(uvarints(uint64(docCount)), int64(lastMatch))
	return append(append(b, uvarints(0, uint64(len(refs)))...), uvarints(refs...)...)
}

// deadRec is a tombstone record with forward pointer fwd (-1 for none).
func deadRec(fwd int) []byte { return uvarints(0, 0, uint64(fwd+2)) }

// docRec is a retained-window record.
func docRec(id, age int, refs ...uint64) []byte {
	return append(uvarints(uint64(id), uint64(age), uint64(len(refs))), uvarints(refs...)...)
}

// verdictBlob is the verdict column vs.
func verdictBlob(vs ...int64) []byte {
	b := uvarints(uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// stateJSON renders st as a version-4 state document.
func stateJSON(st stateV4) string {
	st.Version = stateVersion
	b, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// vocabWords lists d's vocabulary in id order.
func vocabWords(d *Detector) []string {
	words := make([]string, d.vocab.Size())
	for i := range words {
		words[i] = d.vocab.Word(i)
	}
	return words
}

// appendNew appends the words of ws that out does not hold yet.
func appendNew(out []string, ws ...string) []string {
	for _, w := range ws {
		if !slices.Contains(out, w) {
			out = append(out, w)
		}
	}
	return out
}

// TestLoadVocabularyOrder pins the order Load assigns vocabulary ids in:
// by first use over the live templates, then the pending texts, then the
// retained window — not in word-table order. Ids decide the vocabulary
// size V every cost is charged against and the posting layout, so a
// restored detector must number words as the version-3 loader did,
// which added each token in that walk order.
func TestLoadVocabularyOrder(t *testing.T) {
	// A hand-made state whose word table lists the words in an order no
	// walk uses: "r1" first, although only the pending text and the
	// retained document use it.
	st := stateV4{
		Words:     wordBlob("r1", "shared", "t1", "q1"),
		Templates: records(liveRec(1, 0, 3, 0, 2)),
		Pending:   []pendingState{{1, "p1 shared r1 p2"}},
		Retained:  records(docRec(0, 0, 1, 4)),
		Verdicts:  verdictBlob(-1, -2),
	}
	d := New(core.Options{})
	if err := d.Load(bytes.NewReader([]byte(stateJSON(st)))); err != nil {
		t.Fatal(err)
	}
	if got, want := vocabWords(d), []string{"t1", "shared", "p1", "r1", "p2", "q1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("hand-made state: vocabulary %q, want %q", got, want)
	}

	// A saved detector: mined templates, a retained window and pending
	// documents. The reference walks the saved detector's own state.
	d1 := New(core.Options{})
	d1.BatchSize = 1 << 30
	d1.Lifecycle = Lifecycle{Incremental: true}
	d1.AddBatch(append(campaign(20), noise(300, 51)...))
	d1.Flush()
	d1.AddBatch(append(noise(5, 52), "nx51000aa pending words reuse retained ones"))
	if d1.NumTemplates() == 0 || d1.Pending() == 0 || d1.mine == nil || len(d1.mine.docs) == 0 {
		t.Fatalf("seed state: %d templates, %d pending, window %v", d1.NumTemplates(), d1.Pending(), d1.mine != nil)
	}
	var want []string
	for ti, tm := range d1.templates {
		for i, tok := range tm.Tokens {
			if !d1.isDead(ti) && !tm.Wild[i] {
				want = appendNew(want, d1.vocab.Word(tok))
			}
		}
	}
	for _, text := range d1.pendingTexts {
		want = appendNew(want, d1.tk.Tokens(text)...)
	}
	for _, doc := range d1.mine.docs {
		want = appendNew(want, d1.vocab.Decode(doc.toks)...)
	}
	var buf bytes.Buffer
	if err := d1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := New(core.Options{})
	if err := d2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := vocabWords(d2); !reflect.DeepEqual(got, want) {
		t.Fatalf("saved detector: vocabulary of %d words diverges from the walk order's %d", len(got), len(want))
	}
}

// persistSeed builds a small detector whose state holds every part a
// state carries: mined templates, a tombstone, a retained window,
// pending documents and verdicts of all three kinds.
func persistSeed(t testing.TB) *Detector {
	d := New(core.Options{Workers: 1})
	d.BatchSize = 1 << 30
	d.Lifecycle = Lifecycle{MaxTemplates: 1, Incremental: true}
	d.AddBatch(append(campaign(10), noise(100, 61)...))
	d.Flush()
	var raffle []string
	for i := 0; i < 10; i++ {
		raffle = append(raffle, fmt.Sprintf("grand winter raffle enter the diamond draw tonight code gw%04d only", i))
	}
	d.AddBatch(append(raffle, noise(100, 62)...))
	d.Flush()
	// Single-document passes age the noise out of the retained window,
	// so the seed stays small enough to fuzz quickly.
	for i := 0; i <= retainFlushes; i++ {
		d.Add(fmt.Sprintf("short note %d", i))
		d.Flush()
	}
	d.AddBatch(noise(2, 63))
	if d.NumLive() == 0 || d.NumLive() == d.NumTemplates() || d.Pending() == 0 || d.mine == nil || len(d.mine.docs) == 0 {
		t.Fatalf("seed state: %d templates, %d live, %d pending", d.NumTemplates(), d.NumLive(), d.Pending())
	}
	return d
}

// FuzzLoad feeds arbitrary bytes to Load. Load must never panic, and a
// state it accepts must reach a fixpoint after one round trip: saving
// the restored detector, loading that and saving again gives the same
// bytes.
func FuzzLoad(f *testing.F) {
	var seed bytes.Buffer
	if err := persistSeed(f).Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	a := wordBlob("a", "b")
	f.Add([]byte(stateJSON(stateV4{Words: a, Templates: records(liveRec(2, 1, 1, 0, 2), deadRec(0)),
		Pending: []pendingState{{1, "b c"}}, Retained: records(docRec(2, 1, 2, 1)), Verdicts: verdictBlob(0, -2, -1)})))
	f.Add([]byte(`{"version":4}`))
	f.Fuzz(func(t *testing.T, state []byte) {
		d := New(core.Options{Workers: 1})
		if d.Load(bytes.NewReader(state)) != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := d.Save(&once); err != nil {
			t.Fatal(err)
		}
		d2 := New(core.Options{Workers: 1})
		if err := d2.Load(bytes.NewReader(once.Bytes())); err != nil {
			t.Fatalf("saved state does not load: %v\n%s", err, once.Bytes())
		}
		if err := d2.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("save → load → save is not a fixpoint:\n%s\nvs\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
