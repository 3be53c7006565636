package datagen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Drifting-campaign document streams. The lifecycle benchmarks need an
// unbounded stream whose active campaign population keeps turning over:
// new spam campaigns appear, run for a while, and go quiet — the shape
// that makes an unbounded template set grow without bound and makes
// age-out/eviction meaningful. DriftStream synthesizes that stream as a
// pure function: Doc(k) depends only on (Seed, k), so two processes — or
// one process and its replayed write-ahead log — generate byte-identical
// streams without sharing generator state.

// DriftConfig parameterizes DriftStream. Zero values select defaults.
type DriftConfig struct {
	Seed       int64
	Active     int // campaigns active at any moment (default 12)
	ChurnEvery int // documents between campaign births (default 384)
	MinLen     int // min campaign template length (default 10)
	MaxLen     int // max campaign template length (default 14)
	Slots      int // wildcard slots per campaign (default 3)
	NoisePer   int // one in NoisePer documents is noise (default 4)
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Active <= 0 {
		c.Active = 12
	}
	if c.ChurnEvery <= 0 {
		c.ChurnEvery = 384
	}
	if c.MinLen <= 0 {
		c.MinLen = 10
	}
	if c.MaxLen < c.MinLen {
		c.MaxLen = c.MinLen + 4
	}
	if c.Slots <= 0 {
		c.Slots = 3
	}
	if c.Slots >= c.MinLen-2 {
		c.Slots = c.MinLen - 3
	}
	if c.NoisePer <= 0 {
		c.NoisePer = 4
	}
	return c
}

// DriftStream is a deterministic drifting-campaign document stream.
type DriftStream struct {
	cfg DriftConfig
}

// NewDriftStream builds a stream generator; it holds no mutable state,
// so one value can serve any number of goroutines.
func NewDriftStream(cfg DriftConfig) *DriftStream {
	return &DriftStream{cfg: cfg.withDefaults()}
}

// Campaign returns campaign c's template words and wild mask, purely
// from (Seed, c) — the same layout ScaleTemplates emits.
func (s *DriftStream) Campaign(c int) ScaleTemplate {
	cfg := s.cfg
	rng := rand.New(rand.NewSource(cfg.Seed*1000003 + int64(c)*7919))
	n := cfg.MinLen + rng.Intn(cfg.MaxLen-cfg.MinLen+1)
	words := make([]string, n)
	wild := make([]bool, n)
	for k := 0; k < cfg.Slots; k++ {
		for {
			p := rng.Intn(n)
			if !wild[p] {
				wild[p] = true
				words[p] = "_"
				break
			}
		}
	}
	commons := 2
	for p := 0; p < n; p++ {
		if wild[p] {
			continue
		}
		if commons > 0 {
			words[p] = pick(rng, scaleCommons)
			commons--
			continue
		}
		words[p] = fmt.Sprintf("c%dw%d", c, rng.Intn(40))
	}
	return ScaleTemplate{Words: words, Wild: wild}
}

// draw makes document k's first choice: noise, or which campaign. It
// returns the document's generator, positioned after that choice, and
// the campaign (-1 for noise). The active campaign window at document k
// is [k/ChurnEvery, k/ChurnEvery+Active): every ChurnEvery documents one
// campaign is born and the oldest goes quiet, so over a long run the set
// of campaigns ever seen grows linearly while the live set stays
// constant-sized. One in NoisePer documents matches nothing.
func (s *DriftStream) draw(k int) (*rand.Rand, int) {
	cfg := s.cfg
	rng := rand.New(rand.NewSource(cfg.Seed*499979 + int64(k)))
	if rng.Intn(cfg.NoisePer) == 0 {
		return rng, -1
	}
	return rng, k/cfg.ChurnEvery + rng.Intn(cfg.Active)
}

// Label returns document k's ground truth: the campaign Doc(k) renders,
// or -1 for a noise document.
func (s *DriftStream) Label(k int) int {
	_, c := s.draw(k)
	return c
}

// Doc renders document k of the stream (see draw for its campaign).
func (s *DriftStream) Doc(k int) string {
	rng, c := s.draw(k)
	if c < 0 {
		n := 8 + rng.Intn(7)
		words := make([]string, n)
		for i := range words {
			if i%5 == 4 {
				words[i] = pick(rng, scaleCommons)
				continue
			}
			words[i] = fmt.Sprintf("z%d_%d", k, i)
		}
		return strings.Join(words, " ")
	}
	t := s.Campaign(c)
	words := make([]string, 0, len(t.Words))
	for p, w := range t.Words {
		if t.Wild[p] {
			words = append(words, fmt.Sprintf("x%d_%d", k, p))
			continue
		}
		words = append(words, w)
	}
	return strings.Join(words, " ")
}

// Docs renders documents [lo, hi) of the stream.
func (s *DriftStream) Docs(lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for k := lo; k < hi; k++ {
		out = append(out, s.Doc(k))
	}
	return out
}
