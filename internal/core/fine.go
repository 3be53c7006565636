package core

import (
	"sort"
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
// Durations are summed across concurrent cluster workers, so with
// Workers > 1 they measure aggregate CPU time and may exceed the fine
// pass's wall clock.
type FineTimings struct {
	Screen    time.Duration // neighbor collection, overlap bound, C(d|d1) test
	Align     time.Duration // POA / star MSA construction
	Consensus time.Duration // consensus search (Algorithm 2)
	Slots     time.Duration // slot detection (Algorithm 3)
}

func (t *FineTimings) add(o FineTimings) {
	t.Screen += o.Screen
	t.Align += o.Align
	t.Consensus += o.Consensus
	t.Slots += o.Slots
}

// fineScratch bundles every buffer the fine pass reuses across rounds and
// clusters: the pairwise-DP scratch, the POA graph's DP/topology buffers,
// the sorted-token arena behind the overlap screen, and the small
// per-round slices. One fineScratch is owned by one pool worker. The
// zero value is ready to use.
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
	members    []int
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

// fineCluster runs InfoShield-Fine (Algorithm 4) on one coarse cluster:
// repeat {candidate alignment → consensus search → slot detection → MDL
// acceptance} until the cluster is exhausted. docIDs are corpus document
// indices (ascending); tokens the whole corpus's token-id sequences; top
// the per-document selected phrases from the coarse pass; vocabSize the
// paper's V; sc the calling pool worker's scratch.
//
// Candidate scans are restricted to d1's phrase-graph neighbors: only
// documents sharing a selected top phrase with d1 are tested against
// C(d|d1) < C(d). Documents the coarse graph deems unrelated essentially
// never pass the MDL test (they share no important phrase), and the
// restriction is what keeps Fine sub-quadratic on large heterogeneous
// coarse components — the Σ k·S·log(S)·l² complexity of Lemma 2 assumes
// exactly this kind of homogeneous candidate pool.
func fineCluster(docIDs []int, tokens [][]int, top [][]tfidf.PhraseID, vocabSize int, opt Options, sc *fineScratch) ([]TemplateResult, FineTimings) {
	var out []TemplateResult
	var t FineTimings
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
	round := 0
	head := 0
	for {
		for head < n && !alive[head] {
			head++
		}
		if head >= n {
			break
		}
		i1 := head
		d1 := docIDs[i1]
		alive[i1] = false
		seed := tokens[d1]
		if len(seed) == 0 {
			continue
		}
		round++
		screenStart := time.Now()
		// Collect d1's live phrase-graph neighbors, ascending.
		neigh := sc.neigh[:0]
		for _, p := range top[d1] {
			for _, j := range postings[p] {
				if j != i1 && alive[j] && stamp[j] != round {
					stamp[j] = round
					neigh = append(neigh, j)
				}
			}
		}
		sort.Ints(neigh)
		sc.neigh = neigh
		// Candidate alignment (Algorithm 4): every neighbor that
		// compresses against d1 joins, in document order. An O(l)
		// token-overlap bound screens before the O(l²) alignment.
		candidates := append(sc.candidates[:0], d1)
		members := sc.members[:0]
		for _, j := range neigh {
			if screenVerdict(model, seed, sorted[i1], tokens[docIDs[j]], sorted[j], saCost[j], &sc.align) {
				candidates = append(candidates, docIDs[j])
				members = append(members, j)
			}
		}
		sc.candidates, sc.members = candidates, members
		t.Screen += time.Since(screenStart)
		if len(candidates) < 2 {
			// A template must encode at least two documents; d1 is noise.
			continue
		}
		// Candidates leave the pool either way ("treat Di as noise").
		for _, j := range members {
			alive[j] = false
		}
		alignStart := time.Now()
		matrix := buildMSA(candidates, tokens, opt, sc)
		t.Align += time.Since(alignStart)
		numTemplates := len(out) + 1
		consensusStart := time.Now()
		fit := template.ConsensusSearch(matrix, numTemplates, vocabSize)
		t.Consensus += time.Since(consensusStart)
		if !opt.DisableSlots {
			slotStart := time.Now()
			fit.DetectSlots(numTemplates, vocabSize)
			t.Slots += time.Since(slotStart)
		}
		// Acceptance (Algorithm 4): keep the template iff the total cost
		// drops, i.e. encoding the candidates with the template is cheaper
		// than leaving them standalone.
		before := saCost[i1]
		for _, j := range members {
			before += saCost[j]
		}
		after := fit.TotalCost(numTemplates, vocabSize)
		if after < before && fit.Len() > 0 {
			out = append(out, TemplateResult{
				Template:   fit.Template(),
				Docs:       append([]int(nil), candidates...),
				Fit:        fit,
				CostBefore: before,
				CostAfter:  after,
			})
		}
	}
	return out, t
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
// reusing the scratch's sequence-header buffer and POA buffers.
func buildMSA(candidates []int, tokens [][]int, opt Options, sc *fineScratch) *align.Matrix {
	seqs := growSeqs(&sc.seqs, len(candidates))
	for i, d := range candidates {
		seqs[i] = tokens[d]
	}
	if opt.UseStarMSA {
		return align.Star(seqs)
	}
	return poa.BuildWith(&sc.poa, seqs)
}
