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
//
// Every token is a substring of the lower-cased text, so a document
// tokenizes with at most one copy plus its token slice, on both the ASCII
// and the Unicode path.
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
// to ASCII — byte-indexed, so the fast path never decodes a rune and the
// Unicode path answers ASCII runes without a table search.
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
// output slice. FuzzTokensASCII pins it against the rune-by-rune
// reference tokenizer.
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

// tokensUnicode is the general path. strings.ToLower turns every invalid
// byte into U+FFFD, so its output is valid UTF-8 and each token is a
// substring of it, equal to the token a rune-by-rune split would build:
// the whole document costs one lower-casing copy plus the output slice.
// ASCII runes are answered from the byte tables, and runes below U+2E80,
// where no Han, Hiragana or Katakana rune lies, skip the script lookups.
// FuzzTokensUnicode pins it against a rune-by-rune reference.
func (t Tokenizer) tokensUnicode(text string) []string {
	text = strings.ToLower(text)
	out := make([]string, 0, len(text)/8+4)
	for i := 0; i < len(text); {
		r, w := decode(text, i)
		if isSpace(r) {
			i += w
			continue
		}
		j := i + w
		for j < len(text) {
			r, w := decode(text, j)
			if isSpace(r) {
				break
			}
			j += w
		}
		out = appendField(out, text[i:j])
		i = j
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// appendField appends the tokens of one whitespace-delimited field: each
// run between CJK runes with its surrounding punctuation trimmed, and each
// CJK letter as a single-character token. Radicals and symbols in CJK
// blocks are not letters; they are dropped like any other punctuation.
func appendField(out []string, field string) []string {
	lo := 0
	for k := 0; k < len(field); {
		r, w := decode(field, k)
		if isCJK(r) {
			out = appendTrimmed(out, field[lo:k])
			if isWordRune(r) {
				out = append(out, field[k:k+w])
			}
			lo = k + w
		}
		k += w
	}
	return appendTrimmed(out, field[lo:])
}

// appendTrimmed appends s without the leading and trailing runes that
// cannot begin or end a token, unless nothing is left.
func appendTrimmed(out []string, s string) []string {
	for len(s) > 0 {
		r, w := decode(s, 0)
		if isWordRune(r) {
			break
		}
		s = s[w:]
	}
	for len(s) > 0 {
		r, w := utf8.DecodeLastRuneInString(s)
		if isWordRune(r) {
			break
		}
		s = s[:len(s)-w]
	}
	if s == "" {
		return out
	}
	return append(out, s)
}

// decode returns the rune at s[i] and its width, without a call for an
// ASCII byte.
func decode(s string, i int) (rune, int) {
	if s[i] < utf8.RuneSelf {
		return rune(s[i]), 1
	}
	return utf8.DecodeRuneInString(s[i:])
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

// isSpace is unicode.IsSpace, answered from a table for ASCII.
func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiSpace[r]
	}
	return unicode.IsSpace(r)
}

// isWordRune reports whether r can begin or end a token.
func isWordRune(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiWord[r]
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isCJK reports whether r belongs to a script written without spaces
// (Han, Hiragana, Katakana). Hangul is spaced and is left alone. No rune
// of the three scripts lies below U+2E80 (TestCJKFloor), so most
// non-ASCII text skips the lookups.
func isCJK(r rune) bool {
	return r >= 0x2E80 && (unicode.Is(unicode.Han, r) ||
		unicode.Is(unicode.Hiragana, r) ||
		unicode.Is(unicode.Katakana, r))
}
