// Package stream provides an incremental InfoShield detector for
// continuously arriving documents — the deployment shape of the paper's
// application (law enforcement receives new ads every day; spam filters
// see tweets continuously).
//
// New documents are first tested against the already-mined templates with
// the same MDL criterion the batch pipeline uses (C(d|T) < C(d), with
// slots as wildcards); matches attach immediately. The rest buffer, and
// when the buffer reaches BatchSize the full coarse+fine pipeline runs
// over it to mine new templates. Everything stays deterministic for a
// given input order.
//
// The serving hot path scales sublinearly with the template set: a tiered
// postings index over constant tokens (bucket-level bound skips, flat
// chunk slabs, saturated-token credits — see index.go) generates a small
// best-first candidate set, admissible MDL lower bounds — including a
// bit-parallel exact-distance refinement — skip the wildcard-alignment DP
// for candidates that cannot win, a per-goroutine scratch makes the
// surviving DPs allocation-free, template payloads live in contiguous
// arenas, and AddBatch fans the match phase across Options.Workers with
// verdicts applied in arrival order — byte-identical to serial Adds for
// any worker count.
package stream

import (
	"fmt"
	"slices"
	"strings"

	"infoshield/internal/core"
	"infoshield/internal/par"
	"infoshield/internal/tokenize"
)

// Assignment is the detector's verdict for one added document.
type Assignment struct {
	// Template is the index of the matched template, or -1.
	Template int
	// Pending reports that the document waits in the buffer for the next
	// mining pass (its Template is -1 but may change on Flush).
	Pending bool
}

// Template is one mined template with its running document count.
type Template struct {
	Wild     []bool // per position: is a slot (wildcard for matching)
	Tokens   []int  // constants (slot positions keep the consensus token)
	DocCount int
}

// Lifecycle bounds the template set of a long-running detector so an
// unbounded stream runs at bounded memory. While any retiring mechanism
// is on it bounds the vocabulary and the index too: once the vocabulary
// has doubled since it last kept only the words live state references
// (and holds at least 2¹⁷ words), or the templates retired since then
// match the live ones in number (and are at least 32), the mining pass
// rebuilds the detector from its live state, exactly as Load would (see
// compact). The zero value
// disables every mechanism, and a disabled lifecycle is gated
// byte-identical to the pre-lifecycle detector (see
// TestLifecycleOffByteIdentical). All decisions are clocked by document
// ids — pure functions of the ingest sequence — so write-ahead-log
// replay reproduces them exactly.
type Lifecycle struct {
	// MaxTemplates caps the live template count; each mining pass evicts
	// least-recently-matched templates (ties: lowest DocCount, then
	// lowest index) down to the cap. 0 means unbounded.
	MaxTemplates int
	// TTL ages out a template once no document has matched it within the
	// last TTL ingested documents, checked at each mining pass. 0 means
	// templates never age out.
	TTL int
	// Merge enables MDL-gated merging: after each mining pass, every new
	// template probes the tiered index with its own consensus sequence,
	// and when an existing template encodes that sequence more cheaply
	// than standalone, the pair merges — keeping whichever side encodes
	// the other's consensus with the larger saving, exactly the
	// description-length criterion the batch pipeline accepts templates
	// with.
	Merge bool
	// Incremental switches Flush from the batch pipeline to the
	// streaming-native miner: document frequencies and unmatched
	// documents persist across flushes (see minestate.go), so a flush
	// extracts phrases for the new batch only and re-clusters only the
	// components those phrases touch. Costs are amortized per batch, and
	// campaigns that trickle in across flush boundaries still assemble.
	Incremental bool
}

// bounded reports whether any template-retiring mechanism is on.
func (lc Lifecycle) bounded() bool {
	return lc.MaxTemplates > 0 || lc.TTL > 0 || lc.Merge
}

// Detector accumulates documents and templates incrementally.
type Detector struct {
	// BatchSize is the buffer size that triggers a mining pass
	// (default 512).
	BatchSize int
	// Options configures the mining passes and bounds AddBatch's matching
	// worker pool (Options.Workers; any value produces identical output).
	Options core.Options
	// Lifecycle bounds the template set (age-out, MDL merge, hard cap)
	// and enables incremental mining. Must be set before the first
	// document and must match across Save/Load for deterministic replay.
	Lifecycle Lifecycle

	tk        tokenize.Tokenizer
	vocab     *tokenize.Vocab
	templates []Template
	index     tmplIndex

	// Lifecycle state, parallel to templates. Retired templates become
	// tombstones — their index slot survives so template ids stay stable
	// across merges and evictions — and forward redirects a merged
	// template's assignments to its keeper (-1 for evicted/aged-out).
	// lastMatch is the recency clock: the highest document id that
	// matched the template (or its registration high-water mark).
	// liveCount is len(templates) minus tombstones; anyDead short-
	// circuits every tombstone test while no template has retired.
	dead      []bool
	forward   []int32
	lastMatch []int
	liveCount int
	anyDead   bool
	// tombSinceCompact counts tombstones retired since the last
	// compaction (or Load); once they match the live set in number, the
	// lifecycle pass compacts their postings and payloads away.
	tombSinceCompact int

	// mine is the incremental miner's cross-flush state (nil until the
	// first incremental flush).
	mine *mineState

	// compactFloor is the vocabulary size below which the lifecycle never
	// compacts (defaultCompactFloor; tests lower it), and vocabKept the
	// size restore left, at the last compaction or Load.
	compactFloor int
	vocabKept    int

	// Template payloads are packed into arenas (contiguous blocks shared
	// across templates) so the probe hot loop reads sequential memory.
	tokA  arena[int]
	wildA arena[bool]

	pendingTexts []string
	pendingToks  [][]int // detector-vocab token ids, parallel to pendingTexts
	pendingIDs   []int   // caller-visible doc ids of buffered docs

	// verdicts holds every ingested document's verdict, indexed by
	// document id: a raw template index (merged templates resolve through
	// forward at read time), verdictNoise, or verdictPending. Its length
	// is the next document id.
	verdicts []int32

	// scratches holds one probe scratch per matching worker (see scratch).
	scratches []*matchScratch
	// job is the segment matchRange's workers match, and matchFn the
	// worker body (matchChunk) bound once per detector, so a group commit
	// allocates no closure.
	job     matchJob
	matchFn func(w, lo, hi int)
	stats   Stats
}

// matchJob is one segment of encoded documents, each with the vocabulary
// size it was encoded at, and the verdicts to fill, all indexed alike.
type matchJob struct {
	toks            [][]int
	sizes, verdicts []int
}

// New creates an empty detector.
func New(opt core.Options) *Detector {
	d := &Detector{
		BatchSize:    512,
		Options:      opt,
		vocab:        tokenize.NewVocab(),
		compactFloor: defaultCompactFloor,
	}
	d.matchFn = d.matchChunk
	return d
}

// Verdict column values below zero: verdictNoise for a document no
// template claims, verdictPending for one buffered for the next mining
// pass.
const (
	verdictNoise   = -1
	verdictPending = -2
)

// NumTemplates returns the number of template slots ever mined,
// including lifecycle tombstones (template indices are stable; retired
// templates keep their slot). Use NumLive for the live count.
func (d *Detector) NumTemplates() int { return len(d.templates) }

// NumLive returns the number of live (non-retired) templates. With the
// lifecycle disabled it equals NumTemplates.
func (d *Detector) NumLive() int { return d.liveCount }

// Templates returns the mined templates (shared slice; do not mutate).
func (d *Detector) Templates() []Template { return d.templates }

// Pending returns how many documents wait for the next mining pass.
func (d *Detector) Pending() int { return len(d.pendingTexts) }

// VocabSize returns the number of words the vocabulary holds: the V
// every description length is priced against.
func (d *Detector) VocabSize() int { return d.vocab.Size() }

// TemplateInfo is a reporting view of one mined template: the pattern
// renders constants verbatim and slots as "*", matching the batch
// pipeline's Result rendering.
type TemplateInfo struct {
	Pattern  string
	Slots    int
	DocCount int
	// Dead marks a lifecycle tombstone (merged away, aged out, or
	// evicted); its slot survives so template ids stay stable, but it no
	// longer matches documents and its pattern may be empty after a
	// compaction or Load reclaims the payload.
	Dead bool
}

// TemplateInfo renders template ti (0 <= ti < NumTemplates) for
// reporting. It decodes through the detector's vocabulary, so it is only
// safe while no mining pass or Load runs concurrently — serving front
// ends must call it under whatever lock excludes the detector's writers.
func (d *Detector) TemplateInfo(ti int) TemplateInfo {
	t := &d.templates[ti]
	var sb strings.Builder
	slots := 0
	for i, tok := range t.Tokens {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if t.Wild[i] {
			sb.WriteByte('*')
			slots++
			continue
		}
		sb.WriteString(d.vocab.Word(tok))
	}
	return TemplateInfo{Pattern: sb.String(), Slots: slots, DocCount: t.DocCount, Dead: d.isDead(ti)}
}

// Stats returns the cumulative serving-path counters (probe, DP, and
// pruning counts — see Stats).
func (d *Detector) Stats() Stats { return d.stats }

// Assignment returns the current verdict for a document id returned by
// Add. Assignments to templates merged away by the lifecycle resolve
// through the merge's forward pointer to the surviving template;
// assignments to evicted or aged-out templates keep the retired id (the
// historical verdict stands, the template just stops matching new
// documents).
func (d *Detector) Assignment(id int) Assignment {
	if id < 0 || id >= len(d.verdicts) {
		return Assignment{Template: -1}
	}
	v := int(d.verdicts[id])
	if v < 0 {
		return Assignment{Template: -1, Pending: v == verdictPending}
	}
	return Assignment{Template: d.resolve(v)}
}

// Add ingests one document and returns its id. The document either
// attaches to an existing template immediately or buffers for the next
// mining pass (triggered automatically at BatchSize).
func (d *Detector) Add(text string) int {
	toks := d.vocab.Encode(d.tk.Tokens(text))
	return d.apply(text, toks, d.match(toks, d.vocab.Size(), d.scratch(0), &d.stats.MatchStats))
}

// scratch returns worker w's probe scratch, growing the pool on demand.
// Serial probes (Add, merge probes) borrow worker 0's; none runs while
// matchRange's workers hold theirs.
func (d *Detector) scratch(w int) *matchScratch {
	for len(d.scratches) <= w {
		d.scratches = append(d.scratches, &matchScratch{})
	}
	return d.scratches[w]
}

// NextID returns the id the next ingested document will receive: the
// number of documents the detector holds verdicts for, restored ones
// included.
func (d *Detector) NextID() int { return len(d.verdicts) }

// apply commits one matched-or-buffered verdict in arrival order: the
// single mutation point Add and AddBatch share, so batched ingestion has
// exactly the serial path's effects (including flushes that fire
// mid-batch).
func (d *Detector) apply(text string, toks []int, verdict int) int {
	id := len(d.verdicts)
	if verdict >= 0 {
		d.verdicts = append(d.verdicts, int32(verdict))
		d.templates[verdict].DocCount++
		d.lastMatch[verdict] = id
		return id
	}
	d.verdicts = append(d.verdicts, verdictPending)
	d.pendingTexts = append(d.pendingTexts, text)
	d.pendingToks = append(d.pendingToks, toks)
	d.pendingIDs = append(d.pendingIDs, id)
	if len(d.pendingTexts) >= d.batchSize() {
		d.Flush()
	}
	return id
}

// AddBatch ingests many documents and returns their ids, with verdicts
// byte-identical to calling Add in a loop for any Options.Workers.
//
// The batch is consumed in segments of at most BatchSize−Pending()
// documents: within a segment the serial loop could not have flushed
// before the last document's own verdict (a flush needs that many
// buffered docs, and the triggering doc buffers before its flush runs),
// so every segment document is matched against the template set as of the
// segment start. Tokenization fans out first (stateless); vocabulary
// encoding then replays arrival order serially so token ids keep their
// first-seen assignment and each document sees the vocabulary size it
// would have seen under serial Adds; the match phase fans out over
// contiguous index ranges with one scratch per worker; and the verdicts
// are applied sequentially in arrival order, firing any flush exactly
// where the serial loop would.
func (d *Detector) AddBatch(texts []string) []int {
	if len(texts) == 0 {
		return []int{}
	}
	return d.AddBatchTokens(texts, d.tk.All(texts, par.Workers(d.Options.Workers)))
}

// AddBatchTokens is AddBatch over pre-tokenized documents: words[i]
// must be the token stream of texts[i] as produced by the package
// tokenizer. The serving sharder tokenizes once per document to compute
// its routing key and hands the streams through here, so the encode
// step never re-tokenizes. Verdicts are identical to AddBatch (the
// tokenizer is a pure function of the text).
func (d *Detector) AddBatchTokens(texts []string, words [][]string) []int {
	ids := make([]int, len(texts))
	if len(texts) == 0 {
		return ids
	}
	workers := par.Workers(d.Options.Workers)
	toks := make([][]int, len(texts))
	sizes := make([]int, len(texts)) // vocab size after encoding doc i
	verdicts := make([]int, len(texts))
	for start := 0; start < len(texts); {
		room := d.batchSize() - len(d.pendingTexts)
		if room < 1 {
			room = 1
		}
		end := start + room
		if end > len(texts) {
			end = len(texts)
		}
		for i := start; i < end; i++ {
			toks[i] = d.vocab.Encode(words[i])
			sizes[i] = d.vocab.Size()
		}
		d.matchRange(toks, sizes, verdicts, start, end, workers)
		for i := start; i < end; i++ {
			ids[i] = d.apply(texts[i], toks[i], verdicts[i])
		}
		start = end
	}
	return ids
}

// matchRange fills verdicts[start:end] for already-encoded documents
// against the current template set. Verdicts are pure per-document
// functions of (toks, vocab size, templates), so the fan-out only changes
// scheduling; per-worker stats merge in ascending worker order.
func (d *Detector) matchRange(toks [][]int, sizes, verdicts []int, start, end, workers int) {
	if len(d.templates) == 0 {
		for i := start; i < end; i++ {
			verdicts[i] = -1
		}
		return
	}
	workers = min(workers, end-start)
	for w := 0; w < workers; w++ {
		d.scratch(w).stats = MatchStats{}
	}
	d.job = matchJob{toks[start:end], sizes[start:end], verdicts[start:end]}
	par.IndexedRanges(end-start, workers, d.matchFn)
	d.job = matchJob{}
	for _, sc := range d.scratches[:workers] {
		d.stats.MatchStats.Add(sc.stats)
	}
}

// matchChunk is worker w's share of matchRange: it matches the job's
// documents lo..hi-1 with the worker's own scratch.
func (d *Detector) matchChunk(w, lo, hi int) {
	sc, job := d.scratches[w], &d.job
	for i := lo; i < hi; i++ {
		job.verdicts[i] = d.match(job.toks[i], job.sizes[i], sc, &sc.stats)
	}
}

func (d *Detector) batchSize() int {
	if d.BatchSize <= 0 {
		return 512
	}
	return d.BatchSize
}

// register appends a template — payloads copied into the detector's
// arenas — and indexes its constant tokens. Every template — mined by
// Flush, restored by Load, or bulk-loaded by Register — enters through
// here, so the tiered index is always in sync with the template set.
// Registration reuses the index's pooled scratch: loading a
// 100k-template snapshot allocates a few arena blocks, not two maps per
// template.
func (d *Detector) register(t Template) {
	t.Tokens = d.tokA.copyIn(t.Tokens)
	t.Wild = d.wildA.copyIn(t.Wild)
	ti := len(d.templates)
	d.templates = append(d.templates, t)
	d.dead = append(d.dead, false)
	d.forward = append(d.forward, -1)
	// Registration seeds the recency clock at the current high-water
	// mark, so a fresh template gets a full TTL before age-out.
	d.lastMatch = append(d.lastMatch, len(d.verdicts))
	d.liveCount++
	d.index.add(ti, t.Tokens, t.Wild)
}

// reserve makes room for n more templates carrying at most tokens
// distinct tokens, so a bulk load grows each template-parallel slice and
// the posting store's table once.
func (d *Detector) reserve(n, tokens int) {
	d.templates = slices.Grow(d.templates, n)
	d.dead = slices.Grow(d.dead, n)
	d.forward = slices.Grow(d.forward, n)
	d.lastMatch = slices.Grow(d.lastMatch, n)
	d.index.meta = slices.Grow(d.index.meta, n)
	d.index.store.reserve(tokens)
}

// Register adds one template directly, bypassing mining — the bulk-load
// path for serving processes that receive template sets mined elsewhere.
// words and wild run in lockstep; words at wild positions are ignored
// (slots match any token, exactly as in templates restored by Load).
// Returns the new template's index. DocCount starts at zero and counts
// streaming matches from here on.
func (d *Detector) Register(words []string, wild []bool) (int, error) {
	if len(words) != len(wild) {
		return 0, fmt.Errorf("stream: register: %d words vs %d wild flags", len(words), len(wild))
	}
	if len(words) == 0 {
		return 0, fmt.Errorf("stream: register: empty template")
	}
	t := Template{
		Wild:   append([]bool(nil), wild...),
		Tokens: make([]int, len(words)),
	}
	for i, w := range words {
		if wild[i] {
			continue
		}
		t.Tokens[i] = d.vocab.Add(w)
	}
	ti := len(d.templates)
	d.register(t)
	return ti, nil
}

// Flush mines the buffered documents, appending any accepted templates
// and assigning their member documents. Every buffered document's
// verdict first becomes noise; the mining pass then writes the new
// template into its members' verdicts. With Lifecycle.Incremental off
// the batch pipeline runs over the buffer (buffered documents that end
// in no template are released as noise, and that verdict is final);
// with it on, the incremental miner extends its cross-flush state
// instead (see minestate.go) and unmatched documents are retained for a
// bounded number of later passes. Either way the lifecycle pass (merge,
// age-out, cap eviction) runs after mining.
func (d *Detector) Flush() {
	if len(d.pendingTexts) == 0 {
		return
	}
	d.stats.Flushes++
	d.stats.FlushDocs += len(d.pendingTexts)
	for _, id := range d.pendingIDs {
		d.verdicts[id] = verdictNoise
	}
	var newTIs []int
	if d.Lifecycle.Incremental {
		newTIs = d.flushIncremental()
	} else {
		newTIs = d.flushBatch()
	}
	d.pendingTexts = nil
	d.pendingToks = nil
	d.pendingIDs = nil
	d.lifecyclePass(newTIs)
}

// flushBatch mines the buffer with the batch pipeline. The pipeline is
// fed the token streams buffered at ingest time (decoded back to words —
// a slice lookup per token) rather than re-tokenizing the raw texts;
// because the tokenizer is pure, the verdicts are byte-identical to
// core.Run over the texts.
func (d *Detector) flushBatch() []int {
	words := make([][]string, len(d.pendingToks))
	for i, toks := range d.pendingToks {
		w := make([]string, len(toks))
		for j, tok := range toks {
			w[j] = d.vocab.Word(tok)
		}
		words[i] = w
	}
	res := core.RunTokens(d.pendingTexts, words, d.Options)
	toDetector := func(tid int) int { return d.vocab.Add(res.Vocab.Word(tid)) }
	var newTIs []int
	for ci := range res.Clusters {
		for k := range res.Clusters[ci].Templates {
			newTIs = d.registerMined(newTIs, &res.Clusters[ci].Templates[k], d.pendingIDs, toDetector)
		}
	}
	return newTIs
}

// registerMined registers one template a mining pass accepted and
// appends its index to newTIs. tok maps the template's token ids into
// the detector's vocabulary (a slot keeps its consensus token when it
// has one); the template is registered with its member count and counted
// as Mined, and each member — ids maps a member's local index to its
// document id — gets the template as its verdict.
func (d *Detector) registerMined(newTIs []int, tr *core.TemplateResult, ids []int, tok func(int) int) []int {
	n := tr.Template.Len()
	tokens, wild := make([]int, n), make([]bool, n)
	for i, tid := range tr.Template.TokenIDs {
		wild[i] = tr.Template.IsSlot[i]
		if !wild[i] || tid >= 0 {
			tokens[i] = tok(tid)
		}
	}
	ti := len(d.templates)
	d.register(Template{Wild: wild, Tokens: tokens, DocCount: len(tr.Docs)})
	d.stats.Mined++
	for _, local := range tr.Docs {
		d.verdicts[ids[local]] = int32(ti)
	}
	return append(newTIs, ti)
}
