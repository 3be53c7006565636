package serve

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
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

// submit is shard.submit with the token streams computed here, as the
// sharder computes them for routing.
func submit(c *shard, texts []string) []Verdict {
	var tk tokenize.Tokenizer
	return c.submit(texts, tk.All(texts, 1))
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
// batch-cap mode), mining flushes fire mid-batch, a reader loops the
// read side of the commit lock throughout, and the final detector state
// must be byte-identical to feeding the same documents to a serial Add
// loop in queue order — with ids as the arrival-order witness.
func TestCoalesceConcurrentEquivalence(t *testing.T) {
	clients, perClient := 8, 60
	if testing.Short() {
		clients, perClient = 4, 25
	}
	for _, maxBatch := range []int{
		0, // natural batching under the production cap
		8, // tiny commit ceiling
		16,
	} {
		t.Run(fmt.Sprintf("maxBatch=%d", maxBatch), func(t *testing.T) {
			det := stream.New(core.Options{})
			const mineBatch = 32 // small, so mining fires mid-batch
			det.BatchSize = mineBatch
			c := newShard(det)
			if maxBatch > 0 {
				c.maxBatch = maxBatch
			}

			total := clients * perClient
			texts := make([]string, total)
			verdicts := make([]Verdict, total)
			stop := make(chan struct{})
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				var last int64
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					c.assignment(i % total)
					c.templates()
					docs := c.stats().Serve.Docs
					if docs < last {
						t.Errorf("Stats().Serve.Docs fell from %d to %d", last, docs)
						return
					}
					last = docs
				}
			}()
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
						vs := submit(c, docs[i:i+k])
						for j, v := range vs {
							// A request's documents are contiguous in arrival
							// order: the shard never splits a request.
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
			close(stop)
			<-readerDone

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

// holdCommit takes the shard's commit lock so the test can stage a
// deterministic queue behind a blocked leader, and returns the release.
func holdCommit(c *shard) (release func()) {
	c.commit.Lock()
	return c.commit.Unlock
}

// enqueueOrdered runs submit from its own goroutine and spins until
// c's queue grows, pinning the enqueue order exactly. The first staged
// request becomes the leader and blocks on the held commit lock; the
// rest queue behind it.
func enqueueOrdered(c *shard, submit func() []Verdict, out chan<- []Verdict) {
	queued := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.queue)
	}
	before := queued()
	go func() { out <- submit() }()
	for queued() <= before {
		time.Sleep(50 * time.Microsecond)
	}
}

// TestCoalescePinnedBatch drives one exactly-known multi-request batch:
// the commit lock is held, requests are enqueued in a pinned order
// summing to the batch cap, and the detector's mining threshold sits
// mid-batch — the group-commit equivalent of a flush firing while the
// batch coalesces. Verdicts must equal a serial replay sampled at batch
// end, and the whole batch must commit by size.
func TestCoalescePinnedBatch(t *testing.T) {
	det := stream.New(core.Options{})
	det.BatchSize = 7 // mining fires inside the coalesced batch
	c := newShard(det)
	c.maxBatch = 12

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
	release := holdCommit(c)
	outs := make([]chan []Verdict, len(reqs))
	for i, texts := range reqs {
		outs[i] = make(chan []Verdict, 1)
		enqueueOrdered(c, func() []Verdict { return submit(c, texts) }, outs[i])
	}
	release()

	var got []Verdict
	for _, out := range outs {
		got = append(got, <-out...)
	}

	// Serial replay over the same enqueue order, sampling every verdict at
	// batch end — exactly what the shard reports.
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

	st := c.stats()
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

// TestCoalesceShutdownDrain proves the graceful-shutdown contract at the
// gate that owns shutdown: requests staged behind a held commit lock
// were accepted, so Drain waits for them and every one gets full
// verdicts; afterwards every entry point rejects with ErrClosed.
func TestCoalesceShutdownDrain(t *testing.T) {
	sh := setMaxBatch(newTestSharded(t, ShardedConfig{}, 16), 8)
	c := sh.shards[0]

	release := holdCommit(c)
	staged := make([]chan []Verdict, 10)
	for i := range staged {
		staged[i] = make(chan []Verdict, 1)
		docs := corpusFor(int64(50+i), 3)
		enqueueOrdered(c, func() []Verdict {
			vs, err := sh.Submit(docs)
			if err != nil {
				t.Errorf("staged submit %d: %v", i, err)
			}
			return vs
		}, staged[i])
	}
	drained := make(chan error, 1)
	go func() { drained <- sh.Drain("") }()
	// Wait until Drain is pending on the accept gate (a pending writer
	// makes TryRLock fail), then check it cannot finish while the staged
	// requests are stuck behind the commit lock.
	for sh.mu.TryRLock() {
		sh.mu.RUnlock()
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond)
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with staged requests still uncommitted", err)
	default:
	}
	release()
	if err := <-drained; err != nil {
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

	// The gate stays rejecting after drain, for every entry point.
	if _, err := sh.Submit([]string{"x"}); err != ErrClosed {
		t.Fatalf("Submit after Drain: %v", err)
	}
	if _, err := sh.Assignment(0); err != ErrClosed {
		t.Fatalf("Assignment after Drain: %v", err)
	}
	if _, err := sh.Templates(); err != ErrClosed {
		t.Fatalf("Templates after Drain: %v", err)
	}
	if _, err := sh.Stats(); err != ErrClosed {
		t.Fatalf("Stats after Drain: %v", err)
	}
	if err := sh.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Drain: %v", err)
	}
	if _, err := sh.Snapshot(filepath.Join(t.TempDir(), "state.json")); err != ErrClosed {
		t.Fatalf("Snapshot after Drain: %v", err)
	}
	if err := sh.Drain(""); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestCoalesceCounters sanity-checks the bookkeeping identities that
// hold for any schedule: size and drain commits partition batches, the
// histogram sums to the batch count, and docs add up.
func TestCoalesceCounters(t *testing.T) {
	det := stream.New(core.Options{})
	det.BatchSize = 32
	c := newShard(det)
	c.maxBatch = 8

	var wg sync.WaitGroup
	for cl := 0; cl < 4; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			docs := corpusFor(int64(700+cl), 40)
			for i := 0; i < len(docs); i += 2 {
				submit(c, docs[i:i+2])
			}
		}(cl)
	}
	wg.Wait()
	s := c.stats().Serve
	if s.Docs != 160 {
		t.Fatalf("docs %d, want 160", s.Docs)
	}
	if sum := s.BatchesBySize + s.BatchesByDrain; sum != s.Batches {
		t.Fatalf("size + drain commits %d != batches %d", sum, s.Batches)
	}
	var hist int64
	for _, n := range s.BatchSizeHist {
		hist += n
	}
	if hist != s.Batches {
		t.Fatalf("histogram sum %d != batches %d", hist, s.Batches)
	}
	if s.MaxBatchDocs > 8+1 { // requests are never split, but arrive ≤2 docs
		t.Fatalf("max batch %d exceeds the maxBatch growth bound", s.MaxBatchDocs)
	}
}

// panicChildEnv marks the child process of TestCommitPanicExits.
const panicChildEnv = "INFOSHIELD_SERVE_COMMIT_PANIC_CHILD"

// TestCommitPanicExits proves a panic under the commit lock ends the
// process instead of leaving a half-applied detector behind a released
// lock. The child serves a shard whose WAL device panics on write behind
// net/http, which recovers handler panics, and reports whether it
// survived the request; the parent requires exit status 2 and the panic
// on stderr.
func TestCommitPanicExits(t *testing.T) {
	if os.Getenv(panicChildEnv) == "1" {
		c := newShard(stream.New(core.Options{}))
		c.wal = fakeWAL(writerFunc(func([]byte) (int, error) { panic("wal hook failed") }))
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			submit(c, []string{"big sale call now"})
		}))
		defer srv.Close()
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		fmt.Println("survived the commit panic")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCommitPanicExits$")
	cmd.Env = append(os.Environ(), panicChildEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("child exited with %v, want status 2\nstdout:\n%s\nstderr:\n%s", err, out, stderr.String())
	}
	if strings.Contains(string(out), "survived") {
		t.Fatalf("child kept serving after the panic:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "wal hook failed") {
		t.Fatalf("stderr lacks the panic value:\n%s", stderr.String())
	}
}

// TestCommitWALFailure drives group commits into a write-ahead log whose
// device fails every write. Each commit must raise serve.commit_errs and
// wal.errors by one, and the shard must keep committing.
func TestCommitWALFailure(t *testing.T) {
	sh := newTestSharded(t, ShardedConfig{}, 0)
	sh.shards[0].wal = fakeWAL(writerFunc(func([]byte) (int, error) {
		return 0, errors.New("disk full")
	}))
	for i := int64(1); i <= 2; i++ {
		if _, err := sh.Submit([]string{fmt.Sprintf("big sale call now %d", i)}); err != nil {
			t.Fatal(err)
		}
		st, err := sh.Stats()
		if err != nil {
			t.Fatal(err)
		}
		ps := st.PerShard[0]
		if ps.Serve.Docs != i || ps.Serve.CommitErrs != i || ps.WAL.Errors != i {
			t.Fatalf("after commit %d: docs %d, commit_errs %d, wal.errors %d; want %d each",
				i, ps.Serve.Docs, ps.Serve.CommitErrs, ps.WAL.Errors, i)
		}
	}
}

// TestCommitWALFlushMarkerFailure flushes a shard with pending documents
// into a write-ahead log whose device fails only the flush marker's
// write. Replay will not re-run that flush, so the failure must raise
// serve.commit_errs and wal.errors by one each, as a failed append does.
func TestCommitWALFlushMarkerFailure(t *testing.T) {
	sh := newTestSharded(t, ShardedConfig{}, 0)
	sh.shards[0].wal = fakeWAL(writerFunc(func(p []byte) (int, error) {
		if strings.Contains(string(p), `"flush":true`) {
			return 0, errors.New("disk full")
		}
		return len(p), nil
	}))
	if _, err := sh.Submit([]string{"big sale call now"}); err != nil {
		t.Fatal(err)
	}
	before, err := sh.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := sh.Stats()
	if err != nil {
		t.Fatal(err)
	}
	b, a := before.PerShard[0], after.PerShard[0]
	if b.PendingDocs == 0 {
		t.Fatal("no pending documents before the flush")
	}
	if a.Serve.CommitErrs != b.Serve.CommitErrs+1 || a.WAL.Errors != b.WAL.Errors+1 || a.WAL.Flushes != b.WAL.Flushes {
		t.Fatalf("commit_errs %d -> %d, wal.errors %d -> %d, wal.flushes %d -> %d; want +1, +1, +0",
			b.Serve.CommitErrs, a.Serve.CommitErrs, b.WAL.Errors, a.WAL.Errors, b.WAL.Flushes, a.WAL.Flushes)
	}
}

// TestCommitWALRecoversAfterFailedAppend drives three single-document
// commits into a write-ahead log whose device tears the first append
// (half its bytes land, then the write fails) and then recovers. The
// failure is counted once, and the log must hold exactly the records of
// commits 2 and 3: the torn bytes are rolled back, and the buffered
// writer's error does not stick to later appends.
func TestCommitWALRecoversAfterFailedAppend(t *testing.T) {
	sh := newTestSharded(t, ShardedConfig{}, 0)
	f := &memFile{failWrites: 1}
	sh.shards[0].wal = newWAL("", f)
	texts := []string{"big sale call now 1", "big sale call now 2", "big sale call now 3"}
	for _, text := range texts {
		if _, err := sh.Submit([]string{text}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sh.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ps := st.PerShard[0]
	if ps.Serve.Docs != 3 || ps.Serve.CommitErrs != 1 || ps.WAL.Errors != 1 || ps.WAL.Records != 2 {
		t.Fatalf("docs %d, commit_errs %d, wal.errors %d, wal.records %d; want 3, 1, 1, 2",
			ps.Serve.Docs, ps.Serve.CommitErrs, ps.WAL.Errors, ps.WAL.Records)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	// The log starts at document 1: replay it into a detector that holds
	// document 0 already.
	det := &stubDetector{next: 1}
	good, replayed, err := newWAL("", f).replay(det, 1)
	if err != nil {
		t.Fatal(err)
	}
	if good != int64(len(f.data)) || replayed != 2 || !reflect.DeepEqual(det.added, texts[1:]) {
		t.Fatalf("replay read %d of %d bytes, %d records %q; want every byte and %q",
			good, len(f.data), replayed, det.added, texts[1:])
	}
}
