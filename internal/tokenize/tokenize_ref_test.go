package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// referenceTokens is the rune-by-rune tokenizer: the package rules
// written out directly, with unicode's own predicates and no byte tables.
// Tokens must equal it on every input (checkASCIIEquiv, FuzzTokensUnicode).
func referenceTokens(text string) []string {
	text = strings.ToLower(text)
	var out []string
	field := make([]rune, 0, 32)
	flush := func() {
		if len(field) == 0 {
			return
		}
		for _, tok := range refSplitField(field) {
			if tok != "" {
				out = append(out, tok)
			}
		}
		field = field[:0]
	}
	for _, r := range text {
		if unicode.IsSpace(r) {
			flush()
			continue
		}
		field = append(field, r)
	}
	flush()
	return out
}

// refSplitField handles one whitespace-delimited field: trims surrounding
// punctuation and splits out CJK runes as single-character tokens.
func refSplitField(field []rune) []string {
	field = []rune(refTrimNonWord(field))
	if len(field) == 0 {
		return nil
	}
	var toks []string
	cur := make([]rune, 0, len(field))
	for _, r := range field {
		if !refIsCJK(r) {
			cur = append(cur, r)
			continue
		}
		if tok := refTrimNonWord(cur); tok != "" {
			toks = append(toks, tok)
		}
		cur = cur[:0]
		if refIsWordRune(r) {
			toks = append(toks, string(r))
		}
	}
	if tok := refTrimNonWord(cur); tok != "" {
		toks = append(toks, tok)
	}
	return toks
}

// refTrimNonWord strips leading/trailing runes that cannot begin or end a
// token and returns the remainder, possibly empty.
func refTrimNonWord(rs []rune) string {
	start, end := 0, len(rs)
	for start < end && !refIsWordRune(rs[start]) {
		start++
	}
	for end > start && !refIsWordRune(rs[end-1]) {
		end--
	}
	return string(rs[start:end])
}

func refIsWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

func refIsCJK(r rune) bool {
	return unicode.Is(unicode.Han, r) || unicode.Is(unicode.Hiragana, r) || unicode.Is(unicode.Katakana, r)
}

// checkReference holds Tokens equal to the rune-by-rune reference for one
// input (nil and empty are the same answer).
func checkReference(t *testing.T, text string) {
	t.Helper()
	got, want := Tokenizer{}.Tokens(text), referenceTokens(text)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokens(%q) = %q, reference = %q", text, got, want)
	}
}

// TestCJKFloor: no Han, Hiragana or Katakana rune lies below U+2E80,
// which is what lets isCJK skip the script lookups there.
func TestCJKFloor(t *testing.T) {
	for r := rune(0); r < 0x2E80; r++ {
		if refIsCJK(r) {
			t.Fatalf("%U is CJK below the floor", r)
		}
	}
	if !isCJK(0x2E80) || !isCJK('中') || !isCJK('は') || !isCJK('カ') {
		t.Fatal("isCJK misses a CJK rune")
	}
}

// FuzzTokensUnicode holds Tokens equal to the rune-by-rune reference for
// arbitrary byte strings, most of which take the Unicode path. The seeds
// are the shapes the substring tokenizer must get right: invalid UTF-8
// (lower-cased to U+FFFD), non-ASCII spaces (U+3000, U+0085, U+00A0), CJK
// inside and around punctuation, CJK radicals, a case mapping that
// changes byte length (İ is 2 bytes, i is 1) and a final sigma, which
// unicode.ToLower maps like any other sigma.
func FuzzTokensUnicode(f *testing.F) {
	for _, s := range []string{
		"\x00\xff\xfe broken utf8 \xc3\x28 x\xffy \xe4\xb8",
		"full　width　spaces 全角　スペース　区切り",
		"next\u0085line no\u00a0break",
		"a.中.b",
		"..中.. 。「引用」 a⺀⺁b 中,b",
		"İSTANBUL istanbul İı",
		"ΟΔΥΣΣΕΥΣ ὈΔΥΣΣΕΎΣ σς",
		"héllo 今日は ascii tail",
		"Ça coûte 5€ — appelle-moi! 010-1234-5678 한국어 텍스트",
	} {
		f.Add(s)
	}
	f.Fuzz(checkReference)
}
