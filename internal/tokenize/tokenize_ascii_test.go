package tokenize

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkASCIIEquiv pins the ASCII fast path against the rune-by-rune
// reference for one input.
func checkASCIIEquiv(t *testing.T, text string) {
	t.Helper()
	checkReference(t, text)
}

// TestTokensASCIIEquiv covers the fast path's edge shapes directly.
func TestTokensASCIIEquiv(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"...",
		"hello world",
		"Hello, World!",
		"call 123-456.7890 or visit scam.example NOW",
		"\tmixed\r\nwhitespace\v runs \f here ",
		"--edge--case-- !!bang!! 'quoted' (parens)",
		"UPPER lower MiXeD 0123 a1b2c3",
		"a", ".", "a.", ".a", "..a..b..",
		"trailing space ",
		" leading",
	}
	for _, c := range cases {
		checkASCIIEquiv(t, c)
	}
	// Non-ASCII input must take the Unicode path untouched (sanity: the
	// dispatcher, not the fast path, owns these).
	tk := Tokenizer{}
	got := tk.Tokens("héllo 今日は")
	want := tk.tokensUnicode("héllo 今日は")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unicode dispatch: %q vs %q", got, want)
	}
}

// TestTokensASCIIRandom drives random printable-ASCII documents through
// both paths — the deterministic slice of FuzzTokensASCII.
func TestTokensASCIIRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for it := 0; it < 5000; it++ {
		n := rng.Intn(80)
		b := make([]byte, n)
		for i := range b {
			// Bias toward word/space/punct mixes, with occasional control bytes.
			switch rng.Intn(10) {
			case 0:
				b[i] = byte(rng.Intn(128))
			case 1, 2:
				b[i] = ' '
			case 3:
				b[i] = ".,-!'"[rng.Intn(5)]
			default:
				b[i] = "abcXYZ019"[rng.Intn(9)]
			}
		}
		checkASCIIEquiv(t, string(b))
	}
}

// FuzzTokensASCII pins Tokens (which dispatches to the ASCII fast path)
// against the rune-by-rune reference for arbitrary byte strings.
func FuzzTokensASCII(f *testing.F) {
	f.Add("Hello, World! call 123-456.7890")
	f.Add("  ..mixed--  CASE  tokens.. ")
	f.Add("héllo 今日は ascii tail")
	f.Add("ascii words　split by an ideographic space")
	f.Fuzz(func(t *testing.T, text string) {
		checkASCIIEquiv(t, text)
	})
}
