package datagen

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"infoshield/internal/tokenize"
)

func TestSentenceNonEmptyAllLanguages(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tk tokenize.Tokenizer
	for _, lang := range []Language{English, Spanish, Italian, Japanese} {
		for i := 0; i < 50; i++ {
			s := Sentence(rng, lang)
			if len(tk.Tokens(s)) < 2 {
				t.Errorf("%v sentence too short: %q", lang, s)
			}
		}
	}
}

func TestSentenceDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		seen[Sentence(rng, English)] = true
	}
	if len(seen) < 150 {
		t.Errorf("only %d distinct sentences in 200 draws", len(seen))
	}
}

func TestJapaneseSentenceUnspaced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Sentence(rng, Japanese)
	if strings.ContainsFunc(s, unicode.IsSpace) {
		t.Errorf("japanese sentence has spaces: %q", s)
	}
}

func TestFabricatedTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var tk tokenize.Tokenizer
	for i := 0; i < 20; i++ {
		for _, s := range []string{URL(rng), Handle(rng), Phone(rng), Price(rng)} {
			if toks := tk.Tokens(s); len(toks) != 1 {
				t.Errorf("%q tokenizes to %v, want single token", s, toks)
			}
		}
	}
}

func TestTwitterDefaults(t *testing.T) {
	c := Twitter(TwitterConfig{Seed: 7})
	if c.Len() == 0 {
		t.Fatal("empty corpus")
	}
	genuine, bots := 0, 0
	accounts := make(map[string]bool)
	for _, d := range c.Docs {
		accounts[d.Account] = true
		if d.Label {
			bots++
			if d.ClusterLabel < 0 {
				t.Fatalf("bot doc with ClusterLabel %d", d.ClusterLabel)
			}
		} else {
			genuine++
			if d.ClusterLabel != -1 {
				t.Fatalf("genuine doc with ClusterLabel %d", d.ClusterLabel)
			}
		}
		if d.Meta == nil {
			t.Fatal("doc missing metadata")
		}
		if d.ID != 0 && d.Text == "" {
			t.Fatal("empty tweet text")
		}
	}
	if genuine == 0 || bots == 0 {
		t.Errorf("genuine=%d bots=%d", genuine, bots)
	}
	if len(accounts) != 100 {
		t.Errorf("accounts = %d, want 100", len(accounts))
	}
}

func TestTwitterDeterministic(t *testing.T) {
	a := Twitter(TwitterConfig{Seed: 42})
	b := Twitter(TwitterConfig{Seed: 42})
	if !reflect.DeepEqual(a.Docs, b.Docs) {
		t.Error("same seed produced different corpora")
	}
	c := Twitter(TwitterConfig{Seed: 43})
	if reflect.DeepEqual(a.Docs, c.Docs) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestTwitterBotsNearDuplicates(t *testing.T) {
	// A bot's tweets come from at most 2 campaigns, so a bot with several
	// tweets must have same-campaign pairs sharing constant fragments.
	// The pipeline's coarse pass needs shared n-grams (n >= 1 with df
	// rare); require every >=4-tweet bot to have some pair sharing a
	// bigram.
	c := Twitter(TwitterConfig{Seed: 9, GenuineAccounts: 2, BotAccounts: 4})
	var tk tokenize.Tokenizer
	byBot := make(map[int][][]string)
	for _, d := range c.Docs {
		if d.Label {
			byBot[d.ClusterLabel] = append(byBot[d.ClusterLabel], tk.Tokens(d.Text))
		}
	}
	for bot, tweets := range byBot {
		if len(tweets) < 4 {
			continue
		}
		if !anySharedNgram(tweets, 2) {
			t.Errorf("bot %d tweets share no bigram", bot)
		}
	}
}

func anySharedNgram(docs [][]string, n int) bool {
	seen := make(map[string]int)
	for i, toks := range docs {
		local := make(map[string]bool)
		for j := 0; j+n <= len(toks); j++ {
			local[strings.Join(toks[j:j+n], " ")] = true
		}
		for g := range local {
			if prev, ok := seen[g]; ok && prev != i {
				return true
			}
			seen[g] = i
		}
	}
	return false
}

func TestTwitterMetadataSeparation(t *testing.T) {
	c := Twitter(TwitterConfig{Seed: 11})
	var botGap, genGap float64
	var botN, genN int
	for _, d := range c.Docs {
		if d.Label {
			botGap += d.Meta.PostGapSecs
			botN++
		} else {
			genGap += d.Meta.PostGapSecs
			genN++
		}
	}
	if botGap/float64(botN) >= genGap/float64(genN) {
		t.Error("bot posting gaps should be shorter than genuine gaps")
	}
}

func TestSampleTweets(t *testing.T) {
	c := Twitter(TwitterConfig{Seed: 5, GenuineAccounts: 5, BotAccounts: 5})
	s := SampleTweets(c, 20, 1)
	if s.Len() != 20 {
		t.Fatalf("sample len = %d", s.Len())
	}
	for i, d := range s.Docs {
		if d.ID != i {
			t.Errorf("doc %d has ID %d", i, d.ID)
		}
	}
	// Oversampling returns everything.
	s = SampleTweets(c, c.Len()*2, 1)
	if s.Len() != c.Len() {
		t.Errorf("oversample len = %d, want %d", s.Len(), c.Len())
	}
}

func TestTrafficking10kShape(t *testing.T) {
	c := Trafficking10k(Trafficking10kConfig{Seed: 3, Size: 2000})
	if c.Len() != 2000 {
		t.Fatalf("len = %d", c.Len())
	}
	ht, dupGroups := 0, make(map[string][]int)
	for _, d := range c.Docs {
		if d.Ordinal < 0 || d.Ordinal > 6 {
			t.Fatalf("ordinal %d out of range", d.Ordinal)
		}
		if d.Label {
			ht++
		}
		dupGroups[d.Text] = append(dupGroups[d.Text], d.Ordinal)
	}
	frac := float64(ht) / 2000
	if frac < 0.25 || frac > 0.42 {
		t.Errorf("HT fraction = %v, want ~0.33", frac)
	}
	// Count exact-duplicate ads and label disagreement among them.
	dupAds, disagree, groups := 0, 0, 0
	for _, ords := range dupGroups {
		if len(ords) < 2 {
			continue
		}
		groups++
		dupAds += len(ords)
		base := ords[0] >= 4
		for _, o := range ords[1:] {
			if (o >= 4) != base {
				disagree++
				break
			}
		}
	}
	if dupAds < 100 {
		t.Errorf("too few duplicate ads: %d", dupAds)
	}
	if groups > 0 && (float64(disagree)/float64(groups) < 0.15 || float64(disagree)/float64(groups) > 0.75) {
		t.Errorf("disagreement rate = %v, want ~0.4", float64(disagree)/float64(groups))
	}
}

func TestClusterTraffickingProportions(t *testing.T) {
	c := ClusterTrafficking(ClusterTraffickingConfig{Seed: 8, Scale: 0.01})
	var spam, ht, normal int
	clusters := make(map[int]string)
	for _, d := range c.Docs {
		switch d.Account {
		case "spam":
			spam++
			clusters[d.ClusterLabel] = "spam"
		case "ht":
			ht++
			clusters[d.ClusterLabel] = "ht"
		default:
			normal++
			if d.ClusterLabel != -1 {
				t.Fatalf("normal ad with cluster %d", d.ClusterLabel)
			}
		}
	}
	// Paper proportions: spam:ht:normal = 6283:50985:99990.
	total := spam + ht + normal
	if total != c.Len() {
		t.Fatalf("accounting mismatch")
	}
	if !(normal > ht && ht > spam) {
		t.Errorf("proportions off: spam=%d ht=%d normal=%d", spam, ht, normal)
	}
	nSpamClusters, nHTClusters := 0, 0
	for _, kind := range clusters {
		if kind == "spam" {
			nSpamClusters++
		} else {
			nHTClusters++
		}
	}
	if nSpamClusters == 0 || nHTClusters == 0 {
		t.Errorf("clusters: spam=%d ht=%d", nSpamClusters, nHTClusters)
	}
	if nHTClusters <= nSpamClusters {
		t.Errorf("expected more HT clusters than spam clusters: %d vs %d", nHTClusters, nSpamClusters)
	}
}

// Property: generators are deterministic per seed and always produce
// non-empty text.
func TestGeneratorsDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := Trafficking10k(Trafficking10kConfig{Seed: seed, Size: 60})
		b := Trafficking10k(Trafficking10kConfig{Seed: seed, Size: 60})
		if !reflect.DeepEqual(a.Docs, b.Docs) {
			return false
		}
		for _, d := range a.Docs {
			if strings.TrimSpace(d.Text) == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDriftLabelMatchesDoc: Label(k) names the campaign Doc(k) renders.
// A noise document's words are its own (z<k>_<i>) apart from commons; a
// campaign document's campaign-specific words all read c<label>w<j>.
func TestDriftLabelMatchesDoc(t *testing.T) {
	s := NewDriftStream(DriftConfig{Seed: 5})
	noise := 0
	for k := 0; k < 2000; k++ {
		c, words := s.Label(k), strings.Fields(s.Doc(k))
		if c < 0 {
			noise++
			if !strings.HasPrefix(words[0], "z") {
				t.Fatalf("doc %d labelled noise but reads %q", k, words)
			}
			continue
		}
		if lo := k / 384; c < lo || c >= lo+12 {
			t.Fatalf("doc %d: campaign %d outside the active window [%d, %d)", k, c, lo, lo+12)
		}
		prefix := "c" + strconv.Itoa(c) + "w"
		for _, w := range words {
			if strings.HasPrefix(w, "c") && strings.Contains(w, "w") && !strings.HasPrefix(w, prefix) {
				t.Fatalf("doc %d labelled campaign %d but holds %q", k, c, w)
			}
		}
	}
	if noise < 400 || noise > 600 {
		t.Errorf("%d of 2000 documents are noise, want about one in four", noise)
	}
}
