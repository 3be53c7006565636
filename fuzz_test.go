package infoshield

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fuzzCorpus turns one fuzz input into a bounded document list: one
// document per line, capped in count and length so Detect stays fast
// under the fuzzer.
func fuzzCorpus(data string) []string {
	const maxDocs, maxLen = 48, 200
	var texts []string
	for _, line := range strings.Split(data, "\n") {
		if len(texts) == maxDocs {
			break
		}
		if len(line) > maxLen {
			line = line[:maxLen]
		}
		texts = append(texts, line)
	}
	return texts
}

// FuzzDetectDeterminism generalizes TestDetectWorkersEquivalence from one
// pinned corpus to arbitrary inputs: for any document list, Detect must
// produce identical clusters and a byte-identical text report at
// Workers: 1 and Workers: 4. This is the invariant the race detector and
// the maporder analyzer exist to protect; the fuzzer hunts for corpora whose
// shape (empty docs, near-duplicates, degenerate tokens) slips past the
// deterministic merge paths.
func FuzzDetectDeterminism(f *testing.F) {
	f.Add("big sale call now 555-0101\nbig sale call now 555-0102\nbig sale call now 555-0103\nunrelated chatter over here")
	f.Add("a b c d e f g\na b x d e f g\na b y d e f g\na b z d e f g")
	f.Add("")
	f.Add("solo document with nothing to cluster")
	f.Add("same same\nsame same\nsame same\nsame same")
	f.Fuzz(func(t *testing.T, data string) {
		texts := fuzzCorpus(data)
		if len(texts) == 0 {
			t.Skip("empty corpus")
		}
		ref := Detect(texts, Config{Workers: 1})
		got := Detect(texts, Config{Workers: 4})

		var refOut, gotOut bytes.Buffer
		ref.WriteText(&refOut)
		got.WriteText(&gotOut)
		if !bytes.Equal(refOut.Bytes(), gotOut.Bytes()) {
			t.Errorf("WriteText differs between Workers:1 and Workers:4 on %d docs:\n--- w1 ---\n%s\n--- w4 ---\n%s",
				len(texts), refOut.String(), gotOut.String())
		}
		if !reflect.DeepEqual(ref.Clusters(), got.Clusters()) {
			t.Errorf("Clusters() differ between Workers:1 and Workers:4 on %d docs", len(texts))
		}
	})
}
