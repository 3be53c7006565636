package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"infoshield/internal/core"
	"infoshield/internal/stream"
	"infoshield/internal/tokenize"
)

// ErrClosed is returned by every Sharded method once Drain or Close has
// begun: the shards no longer accept work.
var ErrClosed = errors.New("serve: closed")

// ErrNotFound is returned by Assignment for a document id the daemon has
// not issued.
var ErrNotFound = errors.New("serve: no such document")

// Sharded scales the serving daemon past one commit lock: S independent
// shards, each owning its own stream.Detector, commit lock, group-commit
// queue, write-ahead log, and snapshot file. A document routes to
// exactly one shard by a pure function of its token stream (RouteHash or
// RouteLang), so shards never coordinate on the ingest path and
// aggregate throughput scales with S while each shard stays
// single-writer with group commits.
//
// Ids are the shard boundary made visible: a global document id encodes
// its shard as id = local*S + shard, and template ids likewise, so
// lookups decode the shard with one modulo and S=1 degenerates to the
// identity mapping — the unsharded daemon's exact ids.
//
// The accept gate (mu) is held shared across every call's entire
// fan-out and exclusively by Close/Drain, so acceptance is
// all-or-nothing across shards: a request either reaches every shard it
// routes to and gets full verdicts, or it gets ErrClosed — never a
// partial commit. It is also the only shutdown gate: once Drain holds
// it, no call is in flight on any shard, and the shards run no
// goroutine of their own, so there is nothing left to stop.
type Sharded struct {
	n      int
	route  string
	tk     tokenize.Tokenizer
	shards []*shard

	// mu is the sharded accept gate (see type doc). It is not a hot-path
	// data lock: readers only pin "not closed" across the fan-out.
	mu     sync.RWMutex
	closed bool

	// snapMu serializes manifest writes (concurrent POST /v1/snapshot);
	// gen numbers snapshot generations so shard files are never
	// overwritten in place — the old manifest stays valid until the new
	// one renames over it.
	snapMu    sync.Mutex
	gen       int
	prevFiles []string
}

// ShardedConfig configures NewSharded. The zero value of every field
// selects a default; Shards, Route, and any loaded state must agree
// across restarts (they are part of the state identity).
type ShardedConfig struct {
	// Shards is the detector shard count S (default 1).
	Shards int
	// Route is RouteHash (default) or RouteLang.
	Route string
	// WALDir, when set, enables a per-shard write-ahead log
	// (wal-<shard>.log inside the directory): every acked document is on
	// disk before its submitter sees a verdict, and boot replays the log
	// above the document count of the last snapshot's state.
	WALDir string
	// StatePath, when set, is loaded at construction if present: a
	// version-2 sharded manifest as Snapshot and Drain write it.
	StatePath string
	// NewDetector builds each shard's detector (default: stream.New with
	// zero options). It must return a fresh, empty detector.
	NewDetector func() *stream.Detector
}

// NewSharded builds the shard set: loads the manifest when present and
// replays each shard's WAL from the first document its state lacks.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if n < 1 {
		return nil, fmt.Errorf("serve: shard count %d", cfg.Shards)
	}
	route := cfg.Route
	if route == "" {
		route = RouteHash
	}
	if !validRoute(route) {
		return nil, fmt.Errorf("serve: unknown route mode %q", cfg.Route)
	}
	newDet := cfg.NewDetector
	if newDet == nil {
		newDet = func() *stream.Detector { return stream.New(core.Options{}) }
	}
	man, err := readManifest(cfg.StatePath, n, route)
	if err != nil {
		return nil, err
	}

	s := &Sharded{n: n, route: route}
	ok := false
	defer func() {
		if !ok {
			_ = s.Close() // closes the WALs opened so far
		}
	}()
	for k := 0; k < n; k++ {
		det := newDet()
		if man != nil {
			if err := det.Load(bytes.NewReader(man.States[k])); err != nil {
				return nil, fmt.Errorf("serve: shard %d state: %w", k, err)
			}
		}
		sh := newShard(det)
		if cfg.WALDir != "" {
			sh.wal, err = openWAL(filepath.Join(cfg.WALDir, fmt.Sprintf("wal-%d.log", k)),
				det, det.NextID())
			if err != nil {
				return nil, fmt.Errorf("serve: shard %d: %w", k, err)
			}
		}
		s.shards = append(s.shards, sh)
	}
	if man != nil {
		s.gen = man.Gen
		s.prevFiles = man.Files
	}
	ok = true
	return s, nil
}

// Shards returns the shard count S.
func (s *Sharded) Shards() int { return s.n }

// Route returns the routing mode.
func (s *Sharded) Route() string { return s.route }

// shardOf routes one tokenized document.
func (s *Sharded) shardOf(words []string) int {
	return int(routeKey(s.route, words) % uint64(s.n))
}

// globalize rewrites a shard-local verdict into the global id space.
func (s *Sharded) globalize(shard int, v Verdict) Verdict {
	v.ID = v.ID*s.n + shard
	if v.Template >= 0 {
		v.Template = v.Template*s.n + shard
	}
	return v
}

// Submit ingests texts and blocks until every routed sub-batch commits,
// returning one verdict per text in request order with global ids. Each
// document is tokenized exactly once: the token stream feeds the
// routing key and then rides down to the detector's encode step.
func (s *Sharded) Submit(texts []string) ([]Verdict, error) {
	if len(texts) == 0 {
		return []Verdict{}, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}

	words := make([][]string, len(texts))
	homes := make([]int, len(texts))
	oneShard := true
	for i, text := range texts {
		words[i] = s.tk.Tokens(text)
		homes[i] = s.shardOf(words[i])
		if homes[i] != homes[0] {
			oneShard = false
		}
	}
	// Fast path — every single-document request, and any batch that
	// routes whole: no goroutines, one sub-request.
	if oneShard {
		vs := s.shards[homes[0]].submit(texts, words)
		for i := range vs {
			vs[i] = s.globalize(homes[0], vs[i])
		}
		return vs, nil
	}
	// Partition positions by shard — request order is preserved within
	// each shard, so a request's documents stay contiguous in their
	// shard's arrival order — and fan out one blocking sub-request per
	// shard in parallel.
	sub := make([][]int, s.n)
	for i, h := range homes {
		sub[h] = append(sub[h], i)
	}
	out := make([]Verdict, len(texts))
	var wg sync.WaitGroup
	for k := 0; k < s.n; k++ {
		if len(sub[k]) == 0 {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			pos := sub[k]
			st := make([]string, len(pos))
			sw := make([][]string, len(pos))
			for j, p := range pos {
				st[j] = texts[p]
				sw[j] = words[p]
			}
			for j, v := range s.shards[k].submit(st, sw) {
				out[pos[j]] = s.globalize(k, v)
			}
		}(k)
	}
	wg.Wait()
	return out, nil
}

// Assignment returns the live verdict for a global document id (which
// encodes its shard: id = local*S + shard), or ErrNotFound for an id the
// shard has not issued.
func (s *Sharded) Assignment(id int) (Verdict, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return Verdict{}, ErrClosed
	}
	if id < 0 {
		return Verdict{}, ErrNotFound
	}
	shard, local := id%s.n, id/s.n
	a, ok := s.shards[shard].assignment(local)
	if !ok {
		return Verdict{}, ErrNotFound
	}
	return s.globalize(shard, Verdict{ID: local, Template: a.Template, Pending: a.Pending}), nil
}

// ShardTemplate is one mined template in the aggregated listing,
// shard-tagged: ID is the global template id (Index*S + Shard).
type ShardTemplate struct {
	ID       int    `json:"id"`
	Shard    int    `json:"shard"`
	Index    int    `json:"index"`
	Pattern  string `json:"pattern"`
	Slots    int    `json:"slots"`
	DocCount int    `json:"doc_count"`
}

// Templates returns every shard's mined templates, shard-major.
func (s *Sharded) Templates() ([]ShardTemplate, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := []ShardTemplate{}
	for k, sh := range s.shards {
		for i, ti := range sh.templates() {
			if ti.Dead {
				// Retired slot (evicted, aged out, or merged away): keep the
				// position — global ids are positional — but drop the listing.
				continue
			}
			out = append(out, ShardTemplate{
				ID: i*s.n + k, Shard: k, Index: i,
				Pattern: ti.Pattern, Slots: ti.Slots, DocCount: ti.DocCount,
			})
		}
	}
	return out, nil
}

// Flush forces a mining pass on every shard. An explicit flush changes
// verdicts (pending documents get mined early), so each shard logs a
// flush marker to its WAL under the commit lock — so the marker sits
// between the same two group commits as the flush — and crash replay
// re-executes it.
func (s *Sharded) Flush() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for _, sh := range s.shards {
		sh.flush()
	}
	return nil
}

// ShardStats is one shard's /v1/stats block: the per-shard detector and
// group-commit snapshot plus its WAL counters.
type ShardStats struct {
	Shard int `json:"shard"`
	Stats
	WAL *WALStats `json:"wal,omitempty"`
}

// ShardedStats is the aggregated /v1/stats payload: every shard's block
// plus a rolled-up total (counters summed; queue high-water and max
// batch are maxima; skip rate and docs/batch re-derived from the sums).
type ShardedStats struct {
	Shards       int          `json:"shards"`
	Route        string       `json:"route"`
	Total        Stats        `json:"total"`
	DocsPerBatch float64      `json:"docs_per_batch"`
	PerShard     []ShardStats `json:"per_shard"`
}

// Stats snapshots every shard (each between its own group commits) and
// rolls the counters up. The cut is per-shard consistent, not global:
// shards never block each other, so shard k+1 may commit while shard k
// is read.
func (s *Sharded) Stats() (ShardedStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ShardedStats{}, ErrClosed
	}
	out := ShardedStats{Shards: s.n, Route: s.route}
	for k, sh := range s.shards {
		ps := sh.stats()
		ps.Shard = k
		out.PerShard = append(out.PerShard, ps)
		rollup(&out.Total, ps.Stats)
	}
	out.Total.deriveRates()
	out.DocsPerBatch = ratio(out.Total.Serve.Docs, out.Total.Serve.Batches)
	return out, nil
}

// rollup folds one shard's snapshot into the total.
func rollup(t *Stats, st Stats) {
	t.Templates += st.Templates
	t.PendingDocs += st.PendingDocs
	t.Matcher.Add(st.Matcher.MatchStats)
	t.Lifecycle.Live += st.Lifecycle.Live
	t.Lifecycle.VocabWords += st.Lifecycle.VocabWords
	t.Lifecycle.Add(st.Lifecycle.MineStats)
	v, sv := &t.Serve, st.Serve
	v.Docs += sv.Docs
	v.Batches += sv.Batches
	v.BatchesBySize += sv.BatchesBySize
	v.BatchesByDrain += sv.BatchesByDrain
	v.CoalesceWaitNs += sv.CoalesceWaitNs
	v.CommitErrs += sv.CommitErrs
	v.SnapshotLockNs += sv.SnapshotLockNs
	v.Snapshots += sv.Snapshots
	for i, c := range sv.BatchSizeHist {
		v.BatchSizeHist[i] += c
	}
	if sv.MaxBatchDocs > v.MaxBatchDocs {
		v.MaxBatchDocs = sv.MaxBatchDocs
	}
	if sv.QueueHighWater > v.QueueHighWater {
		v.QueueHighWater = sv.QueueHighWater
	}
}

// manifestV2 is the sharded snapshot: per-shard state, on-disk as
// sibling files named by the manifest, or inline for the streamed body
// form. Each state carries its shard's verdicts, so its document count
// is where write-ahead-log replay resumes. Shard files are
// generation-numbered — a new snapshot writes fresh names and renames
// the manifest last, so a crash at any point leaves either the old
// manifest with its old files or the new manifest with its new files,
// never a mix.
type manifestV2 struct {
	Version int               `json:"version"`
	Shards  int               `json:"shards"`
	Route   string            `json:"route"`
	Gen     int               `json:"gen,omitempty"`
	Files   []string          `json:"files,omitempty"`
	States  []json.RawMessage `json:"states,omitempty"`
}

// readManifest loads and validates the version-2 manifest at path,
// resolving shard files relative to the manifest's directory. A missing
// file is a fresh start, not an error.
func readManifest(path string, wantShards int, wantRoute string) (*manifestV2, error) {
	if path == "" {
		return nil, nil
	}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var man manifestV2
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("serve: decode manifest %s: %w", path, err)
	}
	if man.Version != 2 {
		return nil, fmt.Errorf("serve: %s: unsupported manifest version %d", path, man.Version)
	}
	if man.Shards != wantShards {
		return nil, fmt.Errorf("serve: %s was snapshotted with %d shards, running with %d (shard count is part of the state identity)",
			path, man.Shards, wantShards)
	}
	if man.Route != wantRoute {
		return nil, fmt.Errorf("serve: %s was snapshotted with route %q, running with %q",
			path, man.Route, wantRoute)
	}
	if man.States == nil {
		if len(man.Files) != man.Shards {
			return nil, fmt.Errorf("serve: %s: %d shard files for %d shards", path, len(man.Files), man.Shards)
		}
		dir := filepath.Dir(path)
		man.States = make([]json.RawMessage, man.Shards)
		for k, name := range man.Files {
			st, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, fmt.Errorf("serve: shard %d state: %w", k, err)
			}
			man.States[k] = st
		}
	} else if len(man.States) != man.Shards {
		return nil, fmt.Errorf("serve: %s: %d inline states for %d shards", path, len(man.States), man.Shards)
	}
	return &man, nil
}

// Snapshot persists the manifest plus one state file per shard to path,
// atomically (fresh generation-numbered shard files, each tmp+rename,
// manifest renamed last as the commit point), and returns the total
// byte count. Each shard flushes its pending buffer inside its own
// snapshot step. The WAL is NOT truncated here (see Drain): replay just
// skips the records a shard's state already holds.
func (s *Sharded) Snapshot(path string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	states, err := s.collect()
	if err != nil {
		return 0, err
	}
	return s.writeManifest(path, states)
}

// SnapshotTo streams the combined form — the manifest with shard states
// inline — to w (the no-path POST /v1/snapshot response body). The
// output loads anywhere a manifest does.
func (s *Sharded) SnapshotTo(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	states, err := s.collect()
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(&manifestV2{
		Version: 2, Shards: s.n, Route: s.route, States: states,
	})
}

// collect runs each shard's snapshot step in turn (see shard.snapshot).
func (s *Sharded) collect() ([]json.RawMessage, error) {
	states := make([]json.RawMessage, s.n)
	for k, sh := range s.shards {
		var err error
		if states[k], err = sh.snapshot(); err != nil {
			return nil, err
		}
	}
	return states, nil
}

// writeManifest writes a new snapshot generation. Shard files get fresh
// names (<base>.g<gen>.shard<k>), so the previous generation stays
// intact until the manifest rename commits; the superseded files are
// removed afterwards, best-effort.
func (s *Sharded) writeManifest(path string, states []json.RawMessage) (int64, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	dir, base := filepath.Split(path)
	gen := s.gen + 1
	files := make([]string, len(states))
	var total int64
	for k, st := range states {
		name := fmt.Sprintf("%s.g%d.shard%d", base, gen, k)
		if err := atomicWrite(filepath.Join(dir, name), st); err != nil {
			return 0, err
		}
		files[k] = name
		total += int64(len(st))
	}
	mb, err := json.Marshal(&manifestV2{
		Version: 2, Shards: len(states), Route: s.route, Gen: gen, Files: files,
	})
	if err != nil {
		return 0, err
	}
	mb = append(mb, '\n')
	if err := atomicWrite(path, mb); err != nil {
		return 0, err
	}
	total += int64(len(mb))
	for _, old := range s.prevFiles {
		_ = os.Remove(filepath.Join(dir, old))
	}
	s.gen, s.prevFiles = gen, files
	return total, nil
}

// atomicWrite writes b to path via a synced sibling temp file + rename,
// then syncs the directory so the rename itself is durable before the
// caller acts on it: writeManifest deletes the previous generation and
// Drain truncates the logs right after the manifest rename, and a file
// system that does not order metadata across files could otherwise keep
// those and lose the rename.
func atomicWrite(path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.Write(b)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// Drain is the graceful-shutdown protocol, in order: (1) the accept
// gate closes — taking it exclusively waits out every call in flight,
// so every accepted request has its verdicts and its WAL records landed
// before the ack, and no new request can reach any shard; (2) when path
// is set, each shard runs the snapshot step Snapshot runs — final-flush
// its pending buffer (logged to its WAL) and save — and the manifest is
// written (tmp+rename, manifest last); (3) only after the manifest
// commits are the WALs truncated — a crash anywhere earlier leaves a log
// that replays. Safe to call after Close (no-op).
func (s *Sharded) Drain(path string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	var err error
	if path != "" {
		var states []json.RawMessage
		if states, err = s.collect(); err == nil {
			_, err = s.writeManifest(path, states)
		}
		if err == nil {
			for _, sh := range s.shards {
				if sh.wal != nil {
					if terr := sh.wal.truncate(); err == nil {
						err = terr
					}
				}
			}
		}
	}
	for _, sh := range s.shards {
		if sh.wal != nil {
			if cerr := sh.wal.close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// Close stops accepting work and waits out every call in flight,
// leaving the WALs intact (they replay on the next boot). Safe to call more
// than once.
func (s *Sharded) Close() error {
	return s.Drain("")
}
