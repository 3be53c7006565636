package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"infoshield/internal/core"
	"infoshield/internal/stream"
	"infoshield/internal/tokenize"
)

// corpusFor emits a deterministic mix of campaign near-duplicates,
// mutated members, and unique-word noise — the shapes that exercise the
// match, buffer, and mining paths.
func corpusFor(seed int64, n int) []string {
	families := []string{
		"limited offer buy the premium golden package today visit",
		"hot deal super cheap flights to sunny islands call agent",
		"brand new luxury watches heavy discount original box ship",
		"work from home earn serious money weekly no experience",
	}
	rng := rand.New(rand.NewSource(seed))
	docs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0, 1, 2:
			f := families[rng.Intn(len(families))]
			docs = append(docs, fmt.Sprintf("%s site%04d.example now", f, rng.Intn(3000)))
		default:
			k := rng.Intn(1 << 20)
			docs = append(docs, fmt.Sprintf("nq%da nq%db nq%dc nq%dd nq%de nq%df", k, k, k, k, k, k))
		}
	}
	return docs
}

// submit is Coalescer.Submit with the token streams computed here, as the
// sharder computes them for routing.
func submit(c *Coalescer, texts []string) ([]Verdict, error) {
	var tk tokenize.Tokenizer
	return c.Submit(texts, tk.All(texts, 1))
}

// compareToReplay replays texts (indexed by document id) through a fresh
// serial detector and fails unless det — a detector that ingested the
// same documents in id order through any path — agrees on every
// assignment, the pending set, and the full template list.
func compareToReplay(t *testing.T, det *stream.Detector, texts []string, mineBatch int) *stream.Detector {
	t.Helper()
	ref := stream.New(core.Options{Workers: 1})
	ref.BatchSize = mineBatch
	for id, text := range texts {
		if got := ref.Add(text); got != id {
			t.Fatalf("replay id %d != %d", got, id)
		}
	}
	for id := range texts {
		if got, want := det.Assignment(id), ref.Assignment(id); got != want {
			t.Fatalf("doc %d: coalesced %+v != serial replay %+v", id, got, want)
		}
	}
	if got, want := det.NumTemplates(), ref.NumTemplates(); got != want {
		t.Fatalf("templates: coalesced %d != serial replay %d", got, want)
	}
	if !reflect.DeepEqual(det.Templates(), ref.Templates()) {
		t.Fatal("template contents differ from serial replay")
	}
	if got, want := det.Pending(), ref.Pending(); got != want {
		t.Fatalf("pending: coalesced %d != serial replay %d", got, want)
	}
	if got, want := det.Stats().Counters(), ref.Stats().Counters(); got != want {
		t.Fatalf("matcher stats: coalesced %+v != serial replay %+v", got, want)
	}
	return ref
}

// TestCoalesceConcurrentEquivalence is the headline determinism gate:
// many clients submit concurrently (singles and small arrays, in every
// MaxBatch/MaxWait mode), mining flushes fire mid-coalesce, and the
// final detector state must be byte-identical to feeding the same
// documents to a serial Add loop in enqueue order — with ids as the
// arrival-order witness.
func TestCoalesceConcurrentEquivalence(t *testing.T) {
	clients, perClient := 8, 60
	if testing.Short() {
		clients, perClient = 4, 25
	}
	for _, opt := range []Options{
		{},                                // natural batching
		{MaxBatch: 8},                     // tiny commit ceiling
		{MaxWait: 200 * time.Microsecond}, // deadline mode
		{MaxBatch: 16, MaxWait: 2 * time.Millisecond},
	} {
		opt := opt
		t.Run(fmt.Sprintf("maxBatch=%d/maxWait=%s", opt.MaxBatch, opt.MaxWait), func(t *testing.T) {
			det := stream.New(core.Options{})
			const mineBatch = 32 // small, so mining fires mid-coalesce
			det.BatchSize = mineBatch
			c := NewCoalescer(det, opt)

			total := clients * perClient
			texts := make([]string, total)
			verdicts := make([]Verdict, total)
			var wg sync.WaitGroup
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					docs := corpusFor(int64(1000+cl), perClient)
					for i := 0; i < len(docs); {
						// Mix single and array submissions.
						k := 1 + (cl+i)%3
						if i+k > len(docs) {
							k = len(docs) - i
						}
						vs, err := submit(c, docs[i:i+k])
						if err != nil {
							t.Errorf("client %d: %v", cl, err)
							return
						}
						for j, v := range vs {
							// A request's documents are contiguous in arrival
							// order: the coalescer never splits a request.
							if v.ID != vs[0].ID+j {
								t.Errorf("client %d: non-contiguous ids %v", cl, vs)
								return
							}
							texts[v.ID] = docs[i+j]
							verdicts[v.ID] = v
						}
						i += k
					}
				}(cl)
			}
			wg.Wait()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			ref := compareToReplay(t, det, texts, mineBatch)
			// Response-time verdicts may only differ from the final state by
			// pending→assigned upgrades resolved later; a committed template
			// is forever.
			for id, v := range verdicts {
				if v.Template >= 0 {
					if a := ref.Assignment(id); a.Template != v.Template {
						t.Fatalf("doc %d: returned template %d but final is %+v", id, v.Template, a)
					}
				}
			}
		})
	}
}

// holdSequencer parks the sequencer inside a control request so the test
// can stage a deterministic queue, then returns a release function. It
// waits for the sequencer to actually enter the control before
// returning, so subsequent enqueues line up in send order.
func holdSequencer(t *testing.T, c *Coalescer) (release func()) {
	t.Helper()
	entered := make(chan struct{})
	blocked := make(chan struct{})
	go func() {
		if err := c.do(func(*stream.Detector) {
			close(entered)
			<-blocked
		}); err != nil {
			t.Errorf("holdSequencer: %v", err)
		}
	}()
	<-entered
	return func() { close(blocked) }
}

// enqueueOrdered submits texts from its own goroutine and spins until
// the request is observably queued, pinning the enqueue order exactly.
func enqueueOrdered(t *testing.T, c *Coalescer, texts []string, out chan<- []Verdict) {
	t.Helper()
	before := len(c.ch)
	go func() {
		vs, err := submit(c, texts)
		if err != nil {
			t.Errorf("enqueueOrdered: %v", err)
		}
		out <- vs
	}()
	for len(c.ch) <= before {
		time.Sleep(50 * time.Microsecond)
	}
}

// TestCoalescePinnedBatch drives one exactly-known multi-request batch:
// the sequencer is held, requests are enqueued in a pinned order summing
// to MaxBatch, and the detector's mining threshold sits mid-batch — the
// group-commit equivalent of a flush firing while the batch coalesces.
// Verdicts must equal a serial replay sampled at batch end, and the
// whole batch must commit by size.
func TestCoalescePinnedBatch(t *testing.T) {
	det := stream.New(core.Options{})
	det.BatchSize = 7 // mining fires inside the coalesced batch
	c := NewCoalescer(det, Options{MaxBatch: 12, MaxWait: time.Hour})
	defer c.Close()

	campaign := func(i int) string {
		return fmt.Sprintf("limited offer buy the premium golden package today visit site%04d.example now", i)
	}
	noise := func(i int) string {
		return fmt.Sprintf("nq%da nq%db nq%dc nq%dd nq%de nq%df", i, i, i, i, i, i)
	}
	// The 7th document (noise(3)) trips the mining threshold mid-batch:
	// the buffer at that point holds 3 campaign + 4 noise docs, enough
	// contrast for the miner to accept one template. Docs 8-11 then match
	// (campaign) or buffer (noise) against the just-mined template.
	reqs := [][]string{
		{campaign(0), noise(0), noise(1)},
		{campaign(1), noise(2)},
		{campaign(2)},
		{noise(3), campaign(3), campaign(4)},
		{campaign(5), noise(4), campaign(6)},
	}
	release := holdSequencer(t, c)
	outs := make([]chan []Verdict, len(reqs))
	for i, texts := range reqs {
		outs[i] = make(chan []Verdict, 1)
		enqueueOrdered(t, c, texts, outs[i])
	}
	release()

	var got []Verdict
	for _, out := range outs {
		got = append(got, <-out...)
	}

	// Serial replay over the same enqueue order, sampling every verdict at
	// batch end — exactly what the coalescer reports.
	var texts []string
	for _, r := range reqs {
		texts = append(texts, r...)
	}
	ref := stream.New(core.Options{Workers: 1})
	ref.BatchSize = 7
	for _, text := range texts {
		ref.Add(text)
	}
	want := make([]Verdict, len(texts))
	for id := range texts {
		a := ref.Assignment(id)
		want[id] = Verdict{ID: id, Template: a.Template, Pending: a.Pending}
	}
	// got is in request order; requests were enqueued in order, so ids are
	// 0..n-1 in sequence.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts differ:\n got %+v\nwant %+v", got, want)
	}
	// The mining pass must actually have fired mid-batch for this corpus.
	if det.NumTemplates() == 0 {
		t.Fatal("no template mined — the mid-coalesce flush never fired")
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Serve.Batches != 1 || st.Serve.BatchesBySize != 1 {
		t.Fatalf("expected one size-triggered batch, got %+v", st.Serve)
	}
	if st.Serve.MaxBatchDocs != len(texts) || st.Serve.Docs != int64(len(texts)) {
		t.Fatalf("batch accounting off: %+v", st.Serve)
	}
	if st.Serve.BatchSizeHist[4] != 1 { // 12 docs → bucket (8,16]
		t.Fatalf("histogram off: %v", st.Serve.BatchSizeHist)
	}
	if st.Serve.QueueHighWater < len(reqs) {
		t.Fatalf("queue high-water %d < %d staged requests", st.Serve.QueueHighWater, len(reqs))
	}
}

// TestCoalesceControlMidBatch pins the flush-by-control path: a control
// request between staged ingests must split the batch at exactly its
// queue position, and run against the detector state the earlier
// requests produced.
func TestCoalesceControlMidBatch(t *testing.T) {
	det := stream.New(core.Options{})
	det.BatchSize = 1 << 30
	c := NewCoalescer(det, Options{MaxBatch: 1 << 20}) // drain mode
	defer c.Close()

	release := holdSequencer(t, c)
	out1 := make(chan []Verdict, 1)
	enqueueOrdered(t, c, []string{"aa bb cc dd ee", "aa bb cc dd ff"}, out1)

	// A control request staged mid-queue: it must observe exactly the two
	// earlier documents buffered, none of the later ones. The ingest is
	// already queued (depth 1), so wait for depth 2 before staging more.
	pendingAt := make(chan int, 1)
	go func() {
		if err := c.do(func(d *stream.Detector) { pendingAt <- d.Pending() }); err != nil {
			t.Errorf("control: %v", err)
		}
	}()
	for len(c.ch) != 2 {
		time.Sleep(50 * time.Microsecond)
	}
	out2 := make(chan []Verdict, 1)
	enqueueOrdered(t, c, []string{"gg hh ii jj kk"}, out2)
	release()

	<-out1
	if got := <-pendingAt; got != 2 {
		t.Fatalf("control saw %d pending docs, want 2", got)
	}
	<-out2
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Serve.BatchesByControl != 1 {
		t.Fatalf("expected one control-split batch, got %+v", st.Serve)
	}
	if st.Serve.Batches != 2 || st.Serve.BatchesByDrain != 1 {
		t.Fatalf("expected a control-split batch plus a drain batch, got %+v", st.Serve)
	}
}

// TestCoalesceDeadline covers the MaxWait path: a lone submission in
// deadline mode commits once the budget expires, not by size.
func TestCoalesceDeadline(t *testing.T) {
	det := stream.New(core.Options{})
	det.BatchSize = 1 << 30
	c := NewCoalescer(det, Options{MaxBatch: 1 << 20, MaxWait: time.Millisecond})
	defer c.Close()

	vs, err := submit(c, []string{"aa bb cc dd ee"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !vs[0].Pending {
		t.Fatalf("verdicts %+v", vs)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Serve.BatchesByDeadline != 1 || st.Serve.Batches != 1 {
		t.Fatalf("expected one deadline batch, got %+v", st.Serve)
	}
	if st.Serve.CoalesceWaitNs < int64(time.Millisecond) {
		t.Fatalf("coalesce wait %dns < the 1ms budget", st.Serve.CoalesceWaitNs)
	}
}

// TestCoalesceShutdownDrain proves the graceful-shutdown contract: every
// accepted request gets a response — even ones still queued when Close
// begins — nothing is lost, and late submitters get ErrClosed.
func TestCoalesceShutdownDrain(t *testing.T) {
	det := stream.New(core.Options{})
	det.BatchSize = 16
	c := NewCoalescer(det, Options{MaxBatch: 8})

	// Stage a queue the sequencer has not touched yet, then close around
	// it: the staged requests were accepted, so they must all commit.
	release := holdSequencer(t, c)
	staged := make([]chan []Verdict, 10)
	for i := range staged {
		staged[i] = make(chan []Verdict, 1)
		enqueueOrdered(t, c, corpusFor(int64(50+i), 3), staged[i])
	}
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	// Close marks the queue closed before the sequencer drains it; wait
	// for that flag (white-box — probing with Submit would itself be
	// accepted and block if it won the race), then release the sequencer.
	for {
		c.mu.RLock()
		isClosed := c.closed
		c.mu.RUnlock()
		if isClosed {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	ids := map[int]bool{}
	for i, ch := range staged {
		vs := <-ch
		if len(vs) != 3 {
			t.Fatalf("staged request %d: %d verdicts, want 3", i, len(vs))
		}
		for _, v := range vs {
			if ids[v.ID] {
				t.Fatalf("duplicate id %d", v.ID)
			}
			ids[v.ID] = true
		}
	}
	if len(ids) != 30 {
		t.Fatalf("%d docs committed, want 30", len(ids))
	}
	for id := range ids {
		if id < 0 || id >= 30 {
			t.Fatalf("id %d outside the dense range", id)
		}
	}

	// The queue stays rejecting after drain, for every entry point.
	if _, err := submit(c, []string{"x"}); err != ErrClosed {
		t.Fatalf("Submit after Close: %v", err)
	}
	if _, err := c.Templates(); err != ErrClosed {
		t.Fatalf("Templates after Close: %v", err)
	}
	if _, err := c.Stats(); err != ErrClosed {
		t.Fatalf("Stats after Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCoalesceChaoticShutdown closes mid-traffic with no staging: every
// Submit either errors ErrClosed or returns full verdicts, and the
// committed ids are dense — no request is half-processed or dropped.
func TestCoalesceChaoticShutdown(t *testing.T) {
	clients := 8
	if testing.Short() {
		clients = 4
	}
	det := stream.New(core.Options{})
	det.BatchSize = 64
	c := NewCoalescer(det, Options{})

	var mu sync.Mutex
	ids := map[int]bool{}
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			docs := corpusFor(int64(300+cl), 200)
			for i := 0; i < len(docs); i++ {
				vs, err := submit(c, docs[i:i+1])
				if err != nil {
					if err != ErrClosed {
						t.Errorf("client %d: %v", cl, err)
					}
					return
				}
				mu.Lock()
				for _, v := range vs {
					if ids[v.ID] {
						t.Errorf("duplicate id %d", v.ID)
					}
					ids[v.ID] = true
				}
				mu.Unlock()
			}
		}(cl)
	}
	time.Sleep(2 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for id := range ids {
		if id < 0 || id >= len(ids) {
			t.Fatalf("committed ids not dense: %d outside [0,%d)", id, len(ids))
		}
	}
	st := det.Stats()
	if st.Probes < 0 {
		t.Fatal("unreachable")
	}
}

// TestCoalesceCounters sanity-checks the bookkeeping identities that
// hold for any schedule: reasons partition batches, the histogram sums
// to the batch count, and docs add up.
func TestCoalesceCounters(t *testing.T) {
	det := stream.New(core.Options{})
	det.BatchSize = 32
	c := NewCoalescer(det, Options{MaxBatch: 8})

	var wg sync.WaitGroup
	for cl := 0; cl < 4; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			docs := corpusFor(int64(700+cl), 40)
			for i := 0; i < len(docs); i += 2 {
				if _, err := submit(c, docs[i:i+2]); err != nil {
					t.Errorf("client %d: %v", cl, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	s := st.Serve
	if s.Docs != 160 {
		t.Fatalf("docs %d, want 160", s.Docs)
	}
	if sum := s.BatchesBySize + s.BatchesByDeadline + s.BatchesByDrain +
		s.BatchesByControl + s.BatchesByClose; sum != s.Batches {
		t.Fatalf("flush reasons sum %d != batches %d", sum, s.Batches)
	}
	var hist int64
	for _, n := range s.BatchSizeHist {
		hist += n
	}
	if hist != s.Batches {
		t.Fatalf("histogram sum %d != batches %d", hist, s.Batches)
	}
	if s.MaxBatchDocs > 8+1 { // requests are never split, but arrive ≤2 docs
		t.Fatalf("max batch %d exceeds MaxBatch growth bound", s.MaxBatchDocs)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
