package stream

import (
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"infoshield/internal/align"
	"infoshield/internal/datagen"
)

// tokWithHome returns the smallest token id above after whose key homes
// at slot in ps's current table.
func tokWithHome(ps *postingStore, slot uint32, after int) int {
	for tok := after + 1; ; tok++ {
		if ps.home(uint32(tok+1)) == slot {
			return tok
		}
	}
}

// chainOf returns tok's postings as (template, count) pairs in chain
// order, or nil when find misses tok.
func chainOf(ps *postingStore, tok int) []refPosting {
	i := ps.find(tok)
	if i < 0 {
		return nil
	}
	var out []refPosting
	for ci := ps.chains[i].head; ci >= 0; ci = ps.chunks[ci].next {
		ch := &ps.chunks[ci]
		for k := 0; k < int(ch.n); k++ {
			out = append(out, refPosting{template: int(ch.tmpl[k]), count: int(ch.cnt[k])})
		}
	}
	return out
}

// TestPostingTableProbeWrapsTableEnd plants tokens so a probe run wraps
// past the table's end, then checks misses through a full run, doubling,
// and ids at and past the 32-bit key space.
func TestPostingTableProbeWrapsTableEnd(t *testing.T) {
	ps := &postingStore{}
	ps.grow(8) // a 5th token doubles the table
	const last = 7
	a := tokWithHome(ps, last, -1)
	b := tokWithHome(ps, last, a)
	c := tokWithHome(ps, last, b)
	z := tokWithHome(ps, 0, -1)
	toks := []int{a, b, c, z}
	for k, tok := range toks {
		ps.add(k, 1, tok, k+1)
	}
	for k, slot := range []int{last, 0, 1, 2} {
		if got := ps.slots[slot].key; got != uint32(toks[k]+1) {
			t.Fatalf("slot %d holds key %d, want token %d", slot, got, toks[k])
		}
		if got := ps.find(toks[k]); got != slot {
			t.Fatalf("find(%d) = %d, want slot %d", toks[k], got, slot)
		}
	}
	want := map[int][]refPosting{}
	for k, tok := range toks {
		want[tok] = []refPosting{{template: k, count: k + 1}}
	}
	check := func(stage string) {
		t.Helper()
		for _, tok := range toks {
			got := chainOf(ps, tok)
			if len(got) != len(want[tok]) || (len(got) > 0 && got[0] != want[tok][0]) {
				t.Fatalf("%s: token %d postings %v, want %v", stage, tok, got, want[tok])
			}
			if i := ps.find(tok); ps.slots[i].bits != countOne|1<<1 {
				t.Fatalf("%s: token %d bits %#x, want %#x", stage, tok, ps.slots[i].bits, countOne|1<<1)
			}
		}
	}
	check("planted")

	// An absent token homed at the last slot probes through the whole
	// wrapped run (7, 0, 1, 2) and misses at slot 3.
	absent := tokWithHome(ps, last, c)
	if i := ps.find(absent); i >= 0 {
		t.Fatalf("absent token %d found at slot %d", absent, i)
	}

	// Ids past the 32-bit key space wrap onto a real key when truncated;
	// they must miss. 2³²−2, the largest vocabulary id, is a plain miss
	// until registered.
	sentinels := []int{math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32 + a + 1, 1<<40 + z}
	for _, tok := range sentinels {
		if i := ps.find(tok); i >= 0 {
			t.Fatalf("id %d found at slot %d", tok, i)
		}
	}

	// Doubling re-places every entry, chains and bitmaps with it.
	ps.add(9, 1, absent, 2)
	toks = append(toks, absent)
	want[absent] = []refPosting{{template: 9, count: 2}}
	if len(ps.slots) != 16 || ps.used != 5 {
		t.Fatalf("after the 5th token: %d slots, %d used; want 16, 5", len(ps.slots), ps.used)
	}
	check("doubled")
	for i, s := range ps.slots {
		if s.key != 0 && ps.find(int(s.key)-1) != i {
			t.Fatalf("token %d sits in slot %d, unreachable by find", s.key-1, i)
		}
	}

	// The largest vocabulary id is a key like any other.
	top := math.MaxUint32 - 1
	ps.add(3, 2, top, 1)
	if got := chainOf(ps, top); len(got) != 1 || got[0] != (refPosting{template: 3, count: 1}) {
		t.Fatalf("id %d postings %v", top, got)
	}
}

// TestIndexRegistersUnsignedTokenOrder registers a template whose ids
// straddle 2³¹: the (token, position) pairs sort unsigned, so tokens
// reach the store in ascending id order and their chunks follow it.
func TestIndexRegistersUnsignedTokenOrder(t *testing.T) {
	var ix tmplIndex
	hi, mid := math.MaxUint32-1, 1<<31+5
	tokens := []int{hi, 7, mid, 7, 0, hi}
	wild := []bool{false, false, false, false, true, false}
	ix.add(0, tokens, wild)
	order := []struct{ tok, count int }{{7, 2}, {mid, 1}, {hi, 2}}
	for k, w := range order {
		i := ix.store.find(w.tok)
		if i < 0 {
			t.Fatalf("token %d not registered", w.tok)
		}
		if h := ix.store.chains[i].head; int(h) != k {
			t.Fatalf("token %d heads chunk %d, want %d (ascending id order)", w.tok, h, k)
		}
		if got := chainOf(&ix.store, w.tok); len(got) != 1 || got[0] != (refPosting{template: 0, count: w.count}) {
			t.Fatalf("token %d postings %v, want count %d", w.tok, got, w.count)
		}
	}
	if mt := ix.meta[0]; mt.constCnt != 5 || mt.slots != 1 || mt.wildMask != 1<<4 {
		t.Fatalf("meta %+v", mt)
	}
	if got := ix.meta[0].eqMasks; len(got) != 3 || got[0] != 1<<1|1<<3 || got[1] != 1<<2 || got[2] != 1<<0|1<<5 {
		t.Fatalf("position masks %b, want [1010 100 100001]", got)
	}
}

// indexBytes is the memory the tiered index holds in token-keyed
// structures: the token table, the chunk slab and the registration
// scratch, each as capacity × element size.
func indexBytes(ix *tmplIndex) int {
	st := &ix.store
	return cap(st.slots)*int(unsafe.Sizeof(tokSlot{})) +
		cap(st.chains)*int(unsafe.Sizeof(tokChain{})) +
		cap(st.chunks)*int(unsafe.Sizeof(postingChunk{})) +
		cap(ix.regPairs)*8 + cap(ix.regToks)*4 + cap(ix.regMasks)*8
}

// TestIndexMemoryBoundedOnDrift streams the mine-drift configuration —
// DriftStream seed 1, BatchSize 256, a 64-template cap, TTL 50000,
// merge, incremental — to 25k and then 100k documents. The words
// interned grow about 4× over that span; neither the index, whose live
// template set is capped, nor the vocabulary, which the lifecycle
// compacts, may grow with them. The set is still filling toward its cap
// at 25k, and the table doubles once after that (1,024 to 2,048 slots);
// the 1.25× bound leaves room for that one step, not for growth with the
// vocabulary. Every mining pass leaves the vocabulary under the
// compaction trigger, so after each AddBatch it holds at most that plus
// the words interned since the last call that flushed.
func TestIndexMemoryBoundedOnDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 100k documents")
	}
	const first, n = 25000, 100000
	docs := datagen.NewDriftStream(datagen.DriftConfig{Seed: 1}).Docs(0, n)
	d := driftDetector(defaultCompactFloor)
	start := time.Now()
	interned := func() int { return d.vocab.Size() + d.stats.VocabDropped }
	sinceFlush, peak := interned(), 0
	feed := func(lo, hi int) {
		for ; lo < hi; lo += 16 {
			before, flushes := interned(), d.stats.Flushes
			d.AddBatch(docs[lo:min(lo+16, hi)])
			if d.stats.Flushes != flushes {
				sinceFlush = before
			}
			trigger := max(d.compactFloor, 2*d.vocabKept)
			if size := d.vocab.Size(); size >= trigger+interned()-sinceFlush {
				t.Fatalf("doc %d: vocabulary %d, over the trigger %d by more than the %d words interned since the last flush",
					lo, size, trigger, interned()-sinceFlush)
			}
			peak = max(peak, d.vocab.Size())
		}
	}
	feed(0, first)
	bytes0, words0 := indexBytes(&d.index), interned()
	feed(first, n)
	bytes1, words1 := indexBytes(&d.index), interned()
	t.Logf("%d docs: index %d B, %d words interned; %d docs: index %d B, %d words interned, vocabulary %d (peak %d, %d compactions) (%v)",
		first, bytes0, words0, n, bytes1, words1, d.vocab.Size(), peak, d.stats.VocabCompactions, time.Since(start))
	if words1 < 3*words0 {
		t.Fatalf("words interned grew %d → %d: the stream no longer exercises growth", words0, words1)
	}
	if 4*bytes1 > 5*bytes0 {
		t.Fatalf("index grew %d → %d B (> 1.25×) while the template set stayed capped", bytes0, bytes1)
	}
}

// TestBucketBoundAdmissible checks the tier-0 bound directly: for random
// buckets of random members, random documents and random (t, V), the
// bucket's bound at its overlap cap OV = min(cmax, docLen) is at most
// every member's align.WildBounder.Bound at any overlap the member can
// reach (at most OV and at most its constants). A bucket bound above a
// member's would let tier 0 prune a template the scan would pick.
func TestBucketBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const cases = 200000
	var d Detector
	type member struct{ consts, slots int }
	members := make([]member, 0, 8)
	for c := 0; c < cases; c++ {
		// Members share one ⌈lg constants⌉ bucket, as registration files
		// them: constants in [2^(b-1), 2^b), or 0 in bucket 0.
		b := rng.Intn(10)
		lo, hi := 0, 1
		if b > 0 {
			lo, hi = 1<<(b-1), 1<<b
		}
		members = members[:0]
		bi := bucketInfo{rmin: math.MaxInt, smin: math.MaxInt}
		for k := 1 + rng.Intn(6); k > 0; k-- {
			mb := member{consts: lo + rng.Intn(hi-lo), slots: rng.Intn(12)}
			members = append(members, mb)
			bi.cmax = max(bi.cmax, mb.consts)
			bi.rmin = min(bi.rmin, mb.consts+mb.slots)
			bi.smin = min(bi.smin, mb.slots)
			bi.smax = max(bi.smax, mb.slots)
		}
		docLen := 1 + rng.Intn(600)
		numT := 1 + rng.Intn(200000)
		vocab := 1 + rng.Intn(1<<20)
		bounder := align.NewWildBounder(docLen, numT, vocab)
		ov := min(bi.cmax, docLen)
		got := d.bucketBound(bounder, &bi, docLen, ov)
		for _, mb := range members {
			overlap := rng.Intn(min(ov, mb.consts) + 1)
			if want := bounder.Bound(mb.consts+mb.slots, overlap, mb.slots); got > want {
				t.Fatalf("case %d: bucket %+v, doc %d, t %d, V %d: bucket bound %v > member (consts %d, slots %d, overlap %d) bound %v",
					c, bi, docLen, numT, vocab, got, mb.consts, mb.slots, overlap, want)
			}
		}
	}
}
