// Package tokenize provides the language-independent tokenizer and the
// vocabulary (string interning) used by every other InfoShield component.
// The vocabulary (Vocab) has one writer at a time and keeps its words in
// an append-only byte arena indexed by one open-addressing table, so it
// holds no pointers and an interned token never pins its document.
//
// The paper's method is deliberately language-agnostic: no stop-word lists,
// no stemming, no syntax. Tokenization is therefore intentionally simple and
// Unicode-aware:
//
//   - input is lower-cased (Unicode case folding),
//   - whitespace separates tokens,
//   - surrounding punctuation is trimmed but *interior* punctuation is kept,
//     so "scam.com", "123-456.7890" and mangled URLs survive as one token,
//   - runs of CJK characters (which carry no spaces) are split into
//     single-character tokens, the standard language-independent fallback.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"infoshield/internal/par"
)

// Tokenizer converts raw document text into token slices. The zero value is
// ready to use. Tokenizer is stateless and safe for concurrent use. Tokens
// are always lower-cased, as in the paper (see Table X, where "PR Daily"
// becomes "pr daily").
type Tokenizer struct{}

// Tokens splits text into tokens according to the rules documented on the
// package. It never returns empty-string tokens.
func (t Tokenizer) Tokens(text string) []string {
	if isASCII(text) {
		return t.tokensASCII(text)
	}
	return t.tokensUnicode(text)
}

// isASCII reports whether s contains only single-byte runes.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// asciiSpace and asciiWord are unicode.IsSpace and isWordRune restricted
// to ASCII — byte-indexed so the fast path never decodes a rune.
var asciiSpace, asciiWord [utf8.RuneSelf]bool

func init() {
	for _, b := range []byte{'\t', '\n', '\v', '\f', '\r', ' '} {
		asciiSpace[b] = true
	}
	for b := byte(0); b < utf8.RuneSelf; b++ {
		asciiWord[b] = b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
	}
}

// tokensASCII is the allocation-light fast path for pure-ASCII input —
// the overwhelmingly common case on the serving hot path. No ASCII rune
// is CJK, ASCII lower-casing is a byte table, and trimming surrounding
// punctuation keeps tokens as substrings of one backing string, so the
// whole document tokenizes with at most one lower-casing copy plus the
// output slice. FuzzTokensASCII pins it against the Unicode path.
func (t Tokenizer) tokensASCII(text string) []string {
	text = lowerASCII(text)
	// One sized allocation instead of append-doubling: tokens are
	// space-separated, so len/8 under-counts only pathologically short
	// words and the occasional growth is still amortized.
	out := make([]string, 0, len(text)/8+4)
	n := len(text)
	for i := 0; i < n; {
		if asciiSpace[text[i]] {
			i++
			continue
		}
		j := i + 1
		for j < n && !asciiSpace[text[j]] {
			j++
		}
		lo, hi := i, j
		for lo < hi && !asciiWord[text[lo]] {
			lo++
		}
		for hi > lo && !asciiWord[text[hi-1]] {
			hi--
		}
		if lo < hi {
			out = append(out, text[lo:hi])
		}
		i = j
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// lowerASCII lower-cases an ASCII string, returning the input unchanged
// (no copy) when it is already lower-case.
func lowerASCII(s string) string {
	i := 0
	for i < len(s) && !(s[i] >= 'A' && s[i] <= 'Z') {
		i++
	}
	if i == len(s) {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// tokensUnicode is the general rune-by-rune path (and the reference the
// ASCII fast path is fuzzed against).
func (t Tokenizer) tokensUnicode(text string) []string {
	text = strings.ToLower(text)
	var out []string
	field := make([]rune, 0, 32)
	flush := func() {
		if len(field) == 0 {
			return
		}
		for _, tok := range splitField(field) {
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

// All tokenizes every text concurrently across workers goroutines
// (<= 0: GOMAXPROCS) and returns the per-document token slices. The
// tokenizer is stateless, so the result is identical to calling Tokens
// serially on each text.
func (t Tokenizer) All(texts []string, workers int) [][]string {
	out := make([][]string, len(texts))
	par.Ranges(len(texts), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = t.Tokens(texts[i])
		}
	})
	return out
}

// splitField handles one whitespace-delimited field: trims surrounding
// punctuation and splits out CJK runes as single-character tokens.
func splitField(field []rune) []string {
	// Trim leading/trailing non-letter/digit runes, keeping interior ones.
	start, end := 0, len(field)
	for start < end && !isWordRune(field[start]) {
		start++
	}
	for end > start && !isWordRune(field[end-1]) {
		end--
	}
	field = field[start:end]
	if len(field) == 0 {
		return nil
	}
	// Fast path: no CJK runes.
	hasCJK := false
	for _, r := range field {
		if isCJK(r) {
			hasCJK = true
			break
		}
	}
	if !hasCJK {
		return []string{string(field)}
	}
	var toks []string
	cur := make([]rune, 0, len(field))
	emit := func() {
		if tok := trimNonWord(cur); tok != "" {
			toks = append(toks, tok)
		}
		cur = cur[:0]
	}
	for _, r := range field {
		if isCJK(r) {
			emit()
			// Radicals and symbols in CJK blocks are not letters; drop
			// them like any other punctuation.
			if isWordRune(r) {
				toks = append(toks, string(r))
			}
			continue
		}
		cur = append(cur, r)
	}
	emit()
	return toks
}

// trimNonWord strips leading/trailing runes that cannot begin or end a
// token and returns the remainder, possibly empty.
func trimNonWord(rs []rune) string {
	start, end := 0, len(rs)
	for start < end && !isWordRune(rs[start]) {
		start++
	}
	for end > start && !isWordRune(rs[end-1]) {
		end--
	}
	return string(rs[start:end])
}

// isWordRune reports whether r can begin or end a token.
func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isCJK reports whether r belongs to a script written without spaces
// (Han, Hiragana, Katakana). Hangul is spaced and is left alone.
func isCJK(r rune) bool {
	return unicode.Is(unicode.Han, r) ||
		unicode.Is(unicode.Hiragana, r) ||
		unicode.Is(unicode.Katakana, r)
}
