package tfidf

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

// checkTable requires t to hold exactly want: every key at a positive
// value, reachable from its home slot without crossing an empty slot (the
// linear-probing invariant backward-shift deletion must keep), and n
// equal to the occupied slot count.
func checkTable(t *testing.T, label string, tab *HashTable, want map[uint64]int32) {
	t.Helper()
	live := 0
	for i, v := range tab.vals {
		if v == 0 {
			continue
		}
		live++
		key := tab.keys[i]
		if v < 0 || v != want[key] {
			t.Fatalf("%s: slot %d key %#x holds %d, want %d", label, i, key, v, want[key])
		}
		if s := tab.slot(key); s != uint64(i) {
			t.Fatalf("%s: key %#x sits in slot %d but probing finds slot %d", label, key, i, s)
		}
	}
	if live != tab.n || live != len(want) {
		t.Fatalf("%s: %d occupied slots, n = %d, want %d keys", label, live, tab.n, len(want))
	}
	if 2*tab.n > len(tab.keys) {
		t.Fatalf("%s: %d keys in %d slots — over half full", label, tab.n, len(tab.keys))
	}
}

// forgedKeys returns keys whose low 16 bits are all ones, all zeros, or a
// shared mid value, so for any table of up to 2^16 slots they pile into
// three long probe runs — the first homed in the last slot, so its run
// wraps around the table's end.
func forgedKeys() []uint64 {
	var keys []uint64
	for _, low := range []uint64{0xffff, 0, 0x0123} {
		for hi := uint64(0); hi < 8; hi++ {
			keys = append(keys, hi<<32|low)
		}
	}
	return keys
}

// runDFOps applies one Inc or Dec per op byte to a HashTable and to a
// reference map: the top bit asks for a decrement (an increment when the
// key is uncounted), the rest picks a key from the pool. Each step checks
// the key's count and the key total; every 16th step and the last check
// the whole table and every pool key.
func runDFOps(t *testing.T, pool []uint64, ops []byte) {
	var tab HashTable
	want := make(map[uint64]int32)
	for step, op := range ops {
		key := pool[int(op&0x7f)%len(pool)]
		if op&0x80 != 0 && want[key] > 0 {
			tab.Dec(key)
			if want[key]--; want[key] == 0 {
				delete(want, key)
			}
		} else {
			tab.Inc(key)
			want[key]++
		}
		if got := tab.Get(key); got != want[key] || tab.n != len(want) {
			t.Fatalf("step %d: get(%#x) = %d with %d keys, want %d with %d",
				step, key, got, tab.n, want[key], len(want))
		}
		if step%16 != 15 && step != len(ops)-1 {
			continue
		}
		checkTable(t, "step "+strconv.Itoa(step), &tab, want)
		for _, k := range pool {
			if got := tab.Get(k); got != want[k] {
				t.Fatalf("step %d: get(%#x) = %d, want %d", step, k, got, want[k])
			}
		}
	}
}

// TestHashTableWrapDeletion deletes from the middle and the head of a
// probe run that wraps past the table's end: the survivors must shift
// back across the wrap and stay findable.
func TestHashTableWrapDeletion(t *testing.T) {
	var tab HashTable
	keys := forgedKeys()[:6] // all homed in the last slot
	want := make(map[uint64]int32)
	for _, k := range keys {
		tab.Inc(k)
		want[k] = 1
	}
	if len(tab.keys) != 16 {
		t.Fatalf("table has %d slots, want 16", len(tab.keys))
	}
	if tab.vals[0] == 0 || tab.vals[4] == 0 {
		t.Fatal("probe run did not wrap around the table's end")
	}
	for _, k := range []uint64{keys[2], keys[0], keys[5]} {
		tab.Dec(k)
		delete(want, k)
		checkTable(t, "after deleting a wrapped run member", &tab, want)
	}
	for _, k := range keys {
		tab.Inc(k)
		want[k]++
	}
	checkTable(t, "after refilling", &tab, want)
}

// TestHashTableRandomOps cross-checks random inc/dec sequences over
// forged and ordinary keys against a map, through several doublings.
func TestHashTableRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := forgedKeys()
	for i := 0; i < 40; i++ {
		pool = append(pool, rng.Uint64())
	}
	ops := make([]byte, 3000)
	rng.Read(ops)
	runDFOps(t, pool, ops)
}

// TestHashTableInsert: Insert keeps the first value under a key and
// reports it back; Reset empties the table without shrinking it.
func TestHashTableInsert(t *testing.T) {
	var tab HashTable
	for i, k := range forgedKeys() {
		if old := tab.Insert(k, int32(i+1)); old != 0 {
			t.Fatalf("insert of new key %#x returned %d", k, old)
		}
		if old := tab.Insert(k, -7); old != int32(i+1) {
			t.Fatalf("insert of present key %#x returned %d, want %d", k, old, i+1)
		}
	}
	size := len(tab.keys)
	tab.Reset()
	if tab.n != 0 || len(tab.keys) != size || tab.Get(forgedKeys()[0]) != 0 {
		t.Fatalf("reset left n = %d, %d slots (was %d)", tab.n, len(tab.keys), size)
	}
}

// TestHashTableDecUncounted: decrementing an uncounted key is a bug and
// panics instead of corrupting the table.
func TestHashTableDecUncounted(t *testing.T) {
	for _, prefill := range []bool{false, true} {
		var tab HashTable
		if prefill {
			tab.Inc(1)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("prefill=%v: dec of an uncounted key did not panic", prefill)
				}
			}()
			tab.Dec(2)
		}()
	}
}

// FuzzMineDF drives random inc/dec sequences through the DF table (as
// the streaming miner's sliding window uses it) against a map, over forged keys that force long probe runs and wrap
// around the table's end plus a few keys taken from the input.
func FuzzMineDF(f *testing.F) {
	f.Add([]byte{0, 1, 2, 8, 9, 16, 0x80, 0x88, 0x81, 0x90, 3}, uint64(0))
	f.Add([]byte{0, 0, 0, 0x80, 0x80, 1, 0x81, 2, 0x82}, uint64(0x9e3779b97f4a7c15))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64) {
		if len(ops) > 256 {
			return
		}
		pool := forgedKeys()
		for i := uint64(0); i < 8; i++ {
			pool = append(pool, seed+i*0x10001)
		}
		runDFOps(t, pool, ops)
	})
}

func TestComponentsClusters(t *testing.T) {
	// docs 0,1 share "cheap viagra"; docs 1,2 share "call now";
	// docs 4,5 share "hot deal"; doc 3 isolated.
	const cheapViagra, callNow, lonely, hotDeal PhraseID = 11, 22, 33, 44
	sels := [][]PhraseID{
		{cheapViagra},
		{cheapViagra, callNow},
		{callNow},
		{lonely},
		{hotDeal},
		{hotDeal},
	}
	var anchor HashTable
	clusters := Components(sels, 2, &anchor)
	if want := [][]int{{0, 1, 2}, {4, 5}}; !reflect.DeepEqual(clusters, want) {
		t.Fatalf("clusters = %v, want %v", clusters, want)
	}
	if anchor.Len() != 4 {
		t.Errorf("anchor holds %d phrases, want 4", anchor.Len())
	}
	// minSize=1 keeps singletons too.
	if got := len(Components(sels, 1, &anchor)); got != 3 {
		t.Errorf("Components(1) = %d components, want 3", got)
	}
}

// bruteComponents is the reference for Components: a breadth-first
// search over the explicit two-mode graph (document → phrase → document),
// started from each unvisited document in ascending order.
func bruteComponents(sels [][]PhraseID, minSize int) [][]int {
	holders := make(map[PhraseID][]int)
	for d, sel := range sels {
		for _, p := range sel {
			holders[p] = append(holders[p], d)
		}
	}
	seen := make([]bool, len(sels))
	var out [][]int
	for start := range sels {
		if seen[start] {
			continue
		}
		seen[start] = true
		comp := []int{start}
		for k := 0; k < len(comp); k++ {
			for _, p := range sels[comp[k]] {
				for _, d := range holders[p] {
					if !seen[d] {
						seen[d] = true
						comp = append(comp, d)
					}
				}
			}
		}
		if len(comp) >= minSize {
			slices.Sort(comp)
			out = append(out, comp)
		}
	}
	return out
}

// randomSels draws nDocs selections over a few phrases, each document
// holding each phrase with probability 1/4.
func randomSels(rng *rand.Rand, nDocs int) [][]PhraseID {
	sels := make([][]PhraseID, nDocs)
	for d := range sels {
		for p := PhraseID(0); p < 5; p++ {
			if rng.Intn(4) == 0 {
				sels[d] = append(sels[d], mix64(p))
			}
		}
	}
	return sels
}

// Property: Components equals the brute-force search exactly — the same
// components, in the same order, with the same members — at minSize 1
// and 2.
func TestComponentsMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sels := randomSels(rng, rng.Intn(15)+2)
		var anchor HashTable
		for _, minSize := range []int{1, 2} {
			got := Components(sels, minSize, &anchor)
			want := bruteComponents(sels, minSize)
			if !reflect.DeepEqual(got, want) {
				t.Logf("minSize %d: got %v, want %v", minSize, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestComponentsAnchorReuse follows the miner's per-flush pattern: one
// anchor table, Reset by every call, across graphs of different sizes,
// must give the components a fresh table gives each time.
func TestComponentsAnchorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var reused HashTable
	for call, nDocs := range []int{40, 3, 25, 1, 60, 0, 12} {
		sels := randomSels(rng, nDocs)
		want := Components(sels, 2, new(HashTable))
		if got := Components(sels, 2, &reused); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d (%d docs): reused anchor %v, fresh anchor %v", call, nDocs, got, want)
		}
	}
}
