package core

import (
	"sort"
	"sync"
	"time"

	"infoshield/internal/align"
	"infoshield/internal/mdl"
	"infoshield/internal/poa"
	"infoshield/internal/template"
	"infoshield/internal/tfidf"
)

// FineTimings breaks the fine pass into its stages, symmetric to
// CoarseTimings: candidate screening (overlap bound + conditional
// alignment), MSA construction, consensus search, and slot detection.
// Each is summed per-goroutine elapsed time, not CPU time: the wall time
// every goroutine spent in the stage — pool workers and a straggler
// cluster's pipeline chains alike — added up, waits for a CPU included,
// so a stage reads slower when goroutines outnumber CPUs. With Workers > 1
// the sum can exceed the fine pass's wall time, which is
// Result.FineDuration. Pipelined counts the clusters Refine ran down the
// straggler pipeline (at most one per pass).
type FineTimings struct {
	Screen    time.Duration // neighbor collection, overlap bound, C(d|d1) test
	Align     time.Duration // POA / star MSA construction
	Consensus time.Duration // consensus search (Algorithm 2)
	Slots     time.Duration // slot detection (Algorithm 3)
	Pipelined int
}

func (t *FineTimings) add(o FineTimings) {
	t.Screen += o.Screen
	t.Align += o.Align
	t.Consensus += o.Consensus
	t.Slots += o.Slots
	t.Pipelined += o.Pipelined
}

// fineScratch bundles every buffer the fine pass reuses across rounds and
// clusters: the pairwise-DP scratch, the POA graph's DP/topology buffers,
// the sorted-token arena behind the overlap screen, and the small
// per-round slices. One fineScratch is owned by one goroutine at a time.
// The zero value is ready to use.
type fineScratch struct {
	align      align.Scratch // candidate screen's pairwise DP
	poa        poa.Scratch   // POA DP + column ordering
	arena      []int         // backing store for sorted
	sorted     [][]int       // sorted[i]: ascending copy of doc i's tokens
	alive      []bool
	stamp      []int
	saCost     []float64 // memoized standalone costs C(d), per local index
	neigh      []int
	candidates []int
	seqs       [][]int
}

func growInts(p *[]int, n int) []int {
	if cap(*p) < n {
		*p = make([]int, n)
	}
	*p = (*p)[:n]
	return *p
}

func growBools(p *[]bool, n int) []bool {
	if cap(*p) < n {
		*p = make([]bool, n)
	}
	*p = (*p)[:n]
	return *p
}

func growFloats(p *[]float64, n int) []float64 {
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return *p
}

func growSeqs(p *[][]int, n int) [][]int {
	if cap(*p) < n {
		*p = make([][]int, n)
	}
	*p = (*p)[:n]
	return *p
}

// fineScreen is the screen chain of one cluster: it yields Algorithm 4's
// rounds one at a time. A round's screen reads only the alive set earlier
// screens left, never the templates accepted so far, so the rounds come
// out the same whether their MSAs and acceptance run inline (fineCluster)
// or down a pipeline (fineClusterPipelined).
//
// Candidate scans are restricted to d1's phrase-graph neighbors: only
// documents sharing a selected top phrase with d1 are tested against
// C(d|d1) < C(d). Documents the coarse graph deems unrelated essentially
// never pass the MDL test (they share no important phrase), and the
// restriction is what keeps Fine sub-quadratic on large heterogeneous
// coarse components — the Σ k·S·log(S)·l² complexity of Lemma 2 assumes
// exactly this kind of homogeneous candidate pool.
type fineScreen struct {
	docIDs   []int
	tokens   [][]int
	top      [][]tfidf.PhraseID
	postings map[tfidf.PhraseID][]int
	model    align.WildBounder
	sc       *fineScratch
	round    int
	head     int
}

// newFineScreen indexes one cluster for screening. docIDs are corpus
// document indices (ascending); tokens the whole corpus's token-id
// sequences; top the per-document selected phrases from the coarse pass;
// vocabSize the paper's V; sc the screening goroutine's scratch.
func newFineScreen(docIDs []int, tokens [][]int, top [][]tfidf.PhraseID, vocabSize int, sc *fineScratch) fineScreen {
	n := len(docIDs)
	// Posting lists over cluster-local indices, plus sorted token copies
	// (packed into one arena) for the allocation-free overlap screen, plus
	// each document's standalone cost C(d) — the screen re-tests the same
	// neighbor against it every round, so it is computed exactly once.
	postings := make(map[tfidf.PhraseID][]int, n)
	arenaLen := 0
	for _, d := range docIDs {
		arenaLen += len(tokens[d])
	}
	arena := growInts(&sc.arena, arenaLen)
	sorted := growSeqs(&sc.sorted, n)
	saCost := growFloats(&sc.saCost, n)
	off := 0
	for i, d := range docIDs {
		s := arena[off : off+len(tokens[d]) : off+len(tokens[d])]
		off += len(tokens[d])
		copy(s, tokens[d])
		align.SortInts(s)
		sorted[i] = s
		saCost[i] = mdl.DocCost(len(tokens[d]), vocabSize)
		for _, p := range top[d] {
			postings[p] = append(postings[p], i)
		}
	}
	alive := growBools(&sc.alive, n)
	for i := range alive {
		alive[i] = true
	}
	stamp := growInts(&sc.stamp, n)
	for i := range stamp {
		stamp[i] = 0
	}
	// The screen prices every neighbor under a one-template model (a seed
	// document is the only template), so its cost constants are hoisted
	// once per cluster; each verdict re-aims them at the neighbor.
	model := align.NewWildBounder(0, 1, vocabSize)
	return fineScreen{docIDs: docIDs, tokens: tokens, top: top, postings: postings, model: model, sc: sc}
}

// next screens seeds until one gathers a candidate set: it appends the
// round's candidates to dst — the seed d1 first, then every neighbor that
// compresses against it, in document order — and returns dst with the
// candidates' summed standalone cost. ok is false once the cluster is
// exhausted. Seeds whose screen admits no neighbor are noise ("a template
// must encode at least two documents") and yield no round. Candidates
// leave the pool either way.
func (s *fineScreen) next(dst []int, t *FineTimings) (_ []int, before float64, ok bool) {
	sc := s.sc
	alive, stamp := sc.alive, sc.stamp
	for {
		for s.head < len(s.docIDs) && !alive[s.head] {
			s.head++
		}
		if s.head >= len(s.docIDs) {
			return dst, 0, false
		}
		i1 := s.head
		d1 := s.docIDs[i1]
		alive[i1] = false
		seed := s.tokens[d1]
		if len(seed) == 0 {
			continue
		}
		s.round++
		screenStart := time.Now()
		// Collect d1's live phrase-graph neighbors, ascending.
		neigh := sc.neigh[:0]
		for _, p := range s.top[d1] {
			for _, j := range s.postings[p] {
				if j != i1 && alive[j] && stamp[j] != s.round {
					stamp[j] = s.round
					neigh = append(neigh, j)
				}
			}
		}
		sort.Ints(neigh)
		sc.neigh = neigh
		// Candidate alignment (Algorithm 4): every neighbor that
		// compresses against d1 joins, in document order. An O(l)
		// token-overlap bound screens before the O(l²) alignment.
		mark := len(dst)
		dst = append(dst, d1)
		before = sc.saCost[i1]
		for _, j := range neigh {
			d := s.docIDs[j]
			if screenVerdict(s.model, seed, sc.sorted[i1], s.tokens[d], sc.sorted[j], sc.saCost[j], &sc.align) {
				dst = append(dst, d)
				before += sc.saCost[j]
				alive[j] = false
			}
		}
		t.Screen += time.Since(screenStart)
		if len(dst)-mark >= 2 {
			return dst, before, true
		}
		dst = dst[:mark]
	}
}

// fineCluster runs InfoShield-Fine (Algorithm 4) on one coarse cluster:
// repeat {candidate alignment → consensus search → slot detection → MDL
// acceptance} until the cluster is exhausted, one round after another on
// the calling goroutine. The arguments are newFineScreen's, plus opt.
func fineCluster(docIDs []int, tokens [][]int, top [][]tfidf.PhraseID, vocabSize int, opt Options, sc *fineScratch) ([]TemplateResult, FineTimings) {
	var out []TemplateResult
	var t FineTimings
	s := newFineScreen(docIDs, tokens, top, vocabSize, sc)
	for {
		docs, before, ok := s.next(sc.candidates[:0], &t)
		sc.candidates = docs
		if !ok {
			return out, t
		}
		out = accept(out, docs, before, buildMSA(docs, tokens, opt, sc, &t), vocabSize, opt, &t)
	}
}

// fineRound is one screened round on its way down the pipeline: its
// candidates, their summed standalone cost, and its MSA, which is set
// before built is closed.
type fineRound struct {
	docs   []int
	before float64
	matrix *align.Matrix
	built  chan struct{}
}

// fineClusterPipelined is fineCluster for a cluster too big for one
// goroutine (see straggler), with identical output. Of a round's three
// steps only the last reads the templates accepted before it
// (numTemplates = len(out)+1 prices consensus, slots and acceptance), so
// the rounds run as three chains:
//
//   - the screen chain, on the calling goroutine, publishes each round's
//     candidates into one flat arena of len(docIDs) entries (a document
//     joins at most one round, so the arena never reallocates);
//   - the MSA builds, each independent of the others, run on `helpers`
//     goroutines, which the calling goroutine joins once screening ends;
//   - consensus, slots and acceptance run on one goroutine in round
//     order, exactly as fineCluster runs them.
//
// The timings are summed over the chains, as Refine sums them over its
// workers.
func fineClusterPipelined(docIDs []int, tokens [][]int, top [][]tfidf.PhraseID, vocabSize int, opt Options, helpers int, sc *fineScratch) ([]TemplateResult, FineTimings) {
	// Every round holds at least two documents, so the queues never fill.
	maxRounds := len(docIDs)/2 + 1
	msaQ := make(chan *fineRound, maxRounds)
	acceptQ := make(chan *fineRound, maxRounds)
	build := func(sc *fineScratch, t *FineTimings) {
		for rd := range msaQ {
			rd.matrix = buildMSA(rd.docs, tokens, opt, sc, t)
			close(rd.built)
		}
	}
	helperT := make([]FineTimings, helpers)
	var wg sync.WaitGroup
	for h := range helperT {
		wg.Add(1)
		go func() {
			defer wg.Done()
			build(&fineScratch{}, &helperT[h])
		}()
	}
	var out []TemplateResult
	var acceptT FineTimings
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for rd := range acceptQ {
			<-rd.built
			out = accept(out, rd.docs, rd.before, rd.matrix, vocabSize, opt, &acceptT)
		}
	}()

	var t FineTimings
	s := newFineScreen(docIDs, tokens, top, vocabSize, sc)
	arena := make([]int, 0, len(docIDs))
	for {
		mark := len(arena)
		var before float64
		var ok bool
		arena, before, ok = s.next(arena, &t)
		if !ok {
			break
		}
		rd := &fineRound{docs: arena[mark:len(arena):len(arena)], before: before, built: make(chan struct{})}
		msaQ <- rd
		acceptQ <- rd
	}
	close(msaQ)
	close(acceptQ)
	build(sc, &t)
	wg.Wait()
	<-accepted
	t.add(acceptT)
	for _, ht := range helperT {
		t.add(ht)
	}
	return out, t
}

// accept finishes one round: consensus search and slot detection on its
// MSA under a model of len(out)+1 templates, then Algorithm 4's MDL
// acceptance — the template is kept iff encoding the candidates with it is
// cheaper than leaving them standalone (before).
func accept(out []TemplateResult, docs []int, before float64, matrix *align.Matrix, vocabSize int, opt Options, t *FineTimings) []TemplateResult {
	numTemplates := len(out) + 1
	consensusStart := time.Now()
	fit := template.ConsensusSearch(matrix, numTemplates, vocabSize)
	t.Consensus += time.Since(consensusStart)
	if !opt.DisableSlots {
		slotStart := time.Now()
		fit.DetectSlots(numTemplates, vocabSize)
		t.Slots += time.Since(slotStart)
	}
	after := fit.TotalCost(numTemplates, vocabSize)
	if after < before && fit.Len() > 0 {
		out = append(out, TemplateResult{
			Template:   fit.Template(),
			Docs:       append([]int(nil), docs...),
			Fit:        fit,
			CostBefore: before,
			CostAfter:  after,
		})
	}
	return out
}

// screenVerdict is the per-neighbor candidate test C(d|d1) < C(d): the
// O(l) overlap bound, then the O(l²) alignment only when the bound cannot
// rule the neighbor out. The seed is a template with no slots, so both
// run through the matcher's WildBounder; with no distance to seed a band,
// the alignment is the one full fill. model holds the one-template cost
// constants and sa is the neighbor's memoized standalone cost.
func screenVerdict(model align.WildBounder, seed, sortedSeed, toks, sortedDoc []int, sa float64, sc *align.Scratch) bool {
	if len(toks) == 0 {
		return false
	}
	b := model.ForDoc(len(toks))
	if b.Bound(len(seed), align.OverlapSorted(sortedSeed, sortedDoc), 0) >= sa {
		return false
	}
	cost, _ := b.Cost(seed, nil, toks, max(len(seed), len(toks)), 0, sc)
	return cost < sa
}

// buildMSA aligns the candidate documents with the configured MSA method,
// reusing the scratch's sequence-header buffer and POA buffers, and adds
// its time to t.Align.
func buildMSA(candidates []int, tokens [][]int, opt Options, sc *fineScratch, t *FineTimings) *align.Matrix {
	start := time.Now()
	seqs := growSeqs(&sc.seqs, len(candidates))
	for i, d := range candidates {
		seqs[i] = tokens[d]
	}
	var m *align.Matrix
	if opt.UseStarMSA {
		m = align.Star(seqs)
	} else {
		m = poa.BuildWith(&sc.poa, seqs)
	}
	t.Align += time.Since(start)
	return m
}
