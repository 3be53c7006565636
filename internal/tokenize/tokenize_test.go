package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokensBasic(t *testing.T) {
	var tk Tokenizer
	cases := []struct {
		in   string
		want []string
	}{
		{"This is a great soap, and the 5 dollar price is great",
			[]string{"this", "is", "a", "great", "soap", "and", "the", "5", "dollar", "price", "is", "great"}},
		{"call 123-456.7890 or visit scam.com",
			[]string{"call", "123-456.7890", "or", "visit", "scam.com"}},
		{"", nil},
		{"   \t\n ", nil},
		{"...!!!", nil},
		{"'quoted'  (parens)", []string{"quoted", "parens"}},
		{"don't stop", []string{"don't", "stop"}},
		{"httptcokbfwdfts", []string{"httptcokbfwdfts"}},
		{"UPPER Case MiXeD", []string{"upper", "case", "mixed"}},
		{"múltiple canción über", []string{"múltiple", "canción", "über"}},
	}
	for _, c := range cases {
		got := tk.Tokens(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokens(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokensCJK(t *testing.T) {
	var tk Tokenizer
	// Japanese text without spaces: each CJK rune becomes a token.
	got := tk.Tokens("地震です")
	want := []string{"地", "震", "で", "す"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
	// Mixed latin + CJK in one field.
	got = tk.Tokens("abc地震xyz")
	want = []string{"abc", "地", "震", "xyz"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens mixed = %v, want %v", got, want)
	}
}

func TestTokensInteriorPunctuationKept(t *testing.T) {
	var tk Tokenizer
	got := tk.Tokens("(123-456.7890),")
	want := []string{"123-456.7890"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

// Property: no output token is empty, contains whitespace, or starts/ends
// with punctuation.
func TestTokensProperties(t *testing.T) {
	var tk Tokenizer
	f := func(s string) bool {
		for _, tok := range tk.Tokens(s) {
			if tok == "" {
				return false
			}
			if strings.ContainsFunc(tok, unicode.IsSpace) {
				return false
			}
			runes := []rune(tok)
			if !isWordRune(runes[0]) || !isWordRune(runes[len(runes)-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: tokenization is idempotent under re-joining with spaces.
func TestTokensIdempotent(t *testing.T) {
	var tk Tokenizer
	f := func(s string) bool {
		once := tk.Tokens(s)
		twice := tk.Tokens(strings.Join(once, " "))
		return reflect.DeepEqual(once, twice) || (len(once) == 0 && len(twice) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVocabRoundTrip(t *testing.T) {
	v := NewVocab()
	a := v.Add("alpha")
	b := v.Add("beta")
	if a == b {
		t.Fatalf("distinct words got same id %d", a)
	}
	if got := v.Add("alpha"); got != a {
		t.Errorf("re-Add(alpha) = %d, want %d", got, a)
	}
	if v.Size() != 2 {
		t.Errorf("Size = %d, want 2", v.Size())
	}
	if w := v.Word(a); w != "alpha" {
		t.Errorf("Word(%d) = %q", a, w)
	}
	if id, ok := v.ID("beta"); !ok || id != b {
		t.Errorf("ID(beta) = %d,%v", id, ok)
	}
	if _, ok := v.ID("gamma"); ok {
		t.Error("ID(gamma) should be unknown")
	}
}

func TestVocabEncodeDecode(t *testing.T) {
	v := NewVocab()
	toks := []string{"x", "y", "x", "z"}
	ids := v.Encode(toks)
	if len(ids) != len(toks) {
		t.Fatalf("Encode len = %d", len(ids))
	}
	if ids[0] != ids[2] {
		t.Errorf("same word different ids: %v", ids)
	}
	if got := v.Decode(ids); !reflect.DeepEqual(got, toks) {
		t.Errorf("Decode = %v, want %v", got, toks)
	}
}

// Property: Encode then Decode is the identity on arbitrary token lists.
func TestVocabEncodeDecodeProperty(t *testing.T) {
	f := func(words []string) bool {
		v := NewVocab()
		return reflect.DeepEqual(v.Decode(v.Encode(words)), words) || len(words) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ids are dense 0..Size-1.
func TestVocabDenseIDs(t *testing.T) {
	f := func(words []string) bool {
		v := NewVocab()
		for _, w := range words {
			id := v.Add(w)
			if id < 0 || id >= v.Size() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAllMatchesSerialTokens(t *testing.T) {
	texts := []string{
		"Honestly we watched the Golden sunset near the misty harbor",
		"call 123-456.7890 or visit example.test 今日は映画",
		"", "   ", "one",
	}
	for i := 0; i < 40; i++ {
		texts = append(texts, strings.Repeat("word", i%7)+" filler text number "+strings.Repeat("x", i))
	}
	var tk Tokenizer
	want := make([][]string, len(texts))
	for i, s := range texts {
		want[i] = tk.Tokens(s)
	}
	for _, workers := range []int{1, 2, 8, 0} {
		got := tk.All(texts, workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("All(workers=%d) differs from serial Tokens", workers)
		}
	}
	if got := tk.All(nil, 4); len(got) != 0 {
		t.Errorf("All(nil) = %v", got)
	}
}
