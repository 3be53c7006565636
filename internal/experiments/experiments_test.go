package experiments

import (
	"bytes"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestFig1PrecisionOutput(t *testing.T) {
	var buf bytes.Buffer
	Fig1Precision(&buf, Small)
	out := buf.String()
	if !strings.Contains(out, "Twitter test set #1") || !strings.Contains(out, "Twitter test set #2") {
		t.Fatalf("missing test sets:\n%s", out)
	}
	// Early-percentile precision must be high (the Fig 1 shape): parse
	// the 10% row of set #1.
	re := regexp.MustCompile(`(?m)^\s+10%\s+([0-9.]+)`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no 10%% row:\n%s", out)
	}
	p, _ := strconv.ParseFloat(m[1], 64)
	if p < 0.9 {
		t.Errorf("precision at 10%% of clusters = %v, want >= 0.9", p)
	}
}

func TestFig2ScalabilityLinear(t *testing.T) {
	var buf bytes.Buffer
	Fig2Scalability(&buf, Small)
	out := buf.String()
	// Parse per-1k-seconds column; quasi-linearity means it should not
	// blow up across the size sweep (allow 4x drift — small sizes are
	// noisy).
	re := regexp.MustCompile(`(?m)^\s+(\d+)\s+([0-9.]+)\s+([0-9.]+)`)
	rows := re.FindAllStringSubmatch(out, -1)
	if len(rows) < 3 {
		t.Fatalf("too few size rows:\n%s", out)
	}
	first, _ := strconv.ParseFloat(rows[0][3], 64)
	last, _ := strconv.ParseFloat(rows[len(rows)-1][3], 64)
	if last > first*4+0.05 {
		t.Errorf("per-tweet time grew %vx (%v -> %v); not quasi-linear:\n%s",
			last/first, first, last, out)
	}
}

func TestTable8TwitterShape(t *testing.T) {
	var buf bytes.Buffer
	Table8Twitter(&buf, Small)
	out := buf.String()
	for _, want := range []string{"InfoShield", "Cresci-DNA", "botornot", "yang", "ahmed"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing row %q:\n%s", want, out)
		}
	}
	// InfoShield F1 must be strong (paper: >= 90 on both sets).
	f1s := parseRows(t, out, "InfoShield")
	for _, f1 := range f1s {
		if f1 < 85 {
			t.Errorf("InfoShield F1 = %v, want >= 85:\n%s", f1, out)
		}
	}
}

// parseRows extracts the F1 column (last) of every row for a method.
func parseRows(t *testing.T, out, method string) []float64 {
	t.Helper()
	var f1s []float64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, method) {
			continue
		}
		fields := strings.Fields(line)
		f1, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		f1s = append(f1s, f1)
	}
	if len(f1s) == 0 {
		t.Fatalf("no %s rows in:\n%s", method, out)
	}
	return f1s
}

func TestTable8HTShape(t *testing.T) {
	var buf bytes.Buffer
	Table8HT(&buf, Small)
	out := buf.String()
	for _, want := range []string{"InfoShield", "Word2Vec-cl", "Doc2Vec-cl", "FastText-cl", "HTDN"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing row %q:\n%s", want, out)
		}
	}
	// Headline claim: InfoShield has the highest precision on HT data.
	prec := func(method, section string) float64 {
		idx := strings.Index(out, section)
		lines := strings.Split(out[idx:], "\n")
		for _, l := range lines {
			if strings.HasPrefix(l, method) {
				f := strings.Fields(l)
				// name ARI Prec Rec F1 -> Prec is index 2
				v, _ := strconv.ParseFloat(f[2], 64)
				return v
			}
		}
		return -1
	}
	for _, section := range []string{"Trafficking10k", "Cluster Trafficking"} {
		is := prec("InfoShield", section)
		for _, m := range []string{"Word2Vec-cl", "Doc2Vec-cl", "FastText-cl"} {
			if b := prec(m, section); b > is {
				t.Errorf("%s: %s precision %v beats InfoShield %v\n%s", section, m, b, is, out)
			}
		}
	}
}

func TestFig4NgramStabilizes(t *testing.T) {
	var buf bytes.Buffer
	Fig4Ngram(&buf, Small)
	out := buf.String()
	re := regexp.MustCompile(`(?m)^\s+(\d)\s+([0-9.]+)`)
	rows := re.FindAllStringSubmatch(out, -1)
	if len(rows) < 8 {
		t.Fatalf("expected 8 n rows:\n%s", out)
	}
	get := func(i int) float64 {
		v, _ := strconv.ParseFloat(rows[i-1][2], 64)
		return v
	}
	// Paper's Fig 4 shape: precision stabilizes after n=4; n=5 vs n=8
	// should be close.
	if diff := get(8) - get(5); diff > 0.1 || diff < -0.1 {
		t.Errorf("precision not stable after n=5: n5=%v n8=%v", get(5), get(8))
	}
}

func TestTable9Multilingual(t *testing.T) {
	var buf bytes.Buffer
	Table9Multilingual(&buf)
	out := buf.String()
	if !strings.Contains(out, "sismo") {
		t.Errorf("missing Spanish template:\n%s", out)
	}
	if !strings.Contains(out, "templates: 1") {
		t.Errorf("expected exactly one template:\n%s", out)
	}
	// All 23 tweets — including the 3-word variant — share the template;
	// the variant's divergence shows as unmatched ops, not slots.
	if !strings.Contains(out, "#22") {
		t.Errorf("variant tweet not encoded by the template:\n%s", out)
	}
}

func TestTable10Slots(t *testing.T) {
	var buf bytes.Buffer
	Table10Slots(&buf)
	out := buf.String()
	if !strings.Contains(out, "most popular stories") {
		t.Errorf("missing constant prefix:\n%s", out)
	}
	// At least one slot detected over the varying story text.
	re := regexp.MustCompile(`slots: (\d+)`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no slot count:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Errorf("slots = %d, want >= 1:\n%s", n, out)
	}
}

func TestTable11HT(t *testing.T) {
	var buf bytes.Buffer
	Table11HT(&buf)
	out := buf.String()
	if !strings.Contains(out, "templates: 1") && !strings.Contains(out, "templates: 2") {
		t.Errorf("advertiser cluster not summarized:\n%s", out)
	}
}

func TestFig3RelativeLength(t *testing.T) {
	var buf bytes.Buffer
	Fig3RelativeLength(&buf, Small)
	out := buf.String()
	if !strings.Contains(out, "lower-bound violations: 0") {
		t.Errorf("Lemma 1 violated:\n%s", out)
	}
	for _, kind := range []string{"spam", "ht"} {
		if !strings.Contains(out, kind) {
			t.Errorf("missing %s clusters:\n%s", kind, out)
		}
	}
}

func TestFig3KindTieOrder(t *testing.T) {
	for _, c := range []struct {
		counts map[string]int
		want   string
	}{
		{map[string]int{"spam": 3, "ht": 3, "normal": 3}, "spam"},
		{map[string]int{"normal": 2, "ht": 2}, "ht"},
		{map[string]int{"normal": 4, "spam": 4, "ht": 1}, "spam"},
		{map[string]int{"ht": 1, "normal": 5}, "normal"},
		{map[string]int{}, "normal"},
	} {
		for i := 0; i < 20; i++ { // map iteration order varies run to run
			if got := fig3Kind(c.counts); got != c.want {
				t.Fatalf("fig3Kind(%v) = %q, want %q", c.counts, got, c.want)
			}
		}
	}
}

func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	AblationSlots(&buf, Small)
	AblationMSA(&buf, Small)
	AblationConsensusSearch(&buf, Small)
	AblationCoarseStrictness(&buf, Small)
	AblationCoarseMethod(&buf, Small)
	out := buf.String()
	for _, want := range []string{"slot detection", "POA vs star", "dichotomous", "strictness", "coarse method"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing ablation %q", want)
		}
	}
	// The two coarse ablations run the alternative coarse passes end to
	// end; pin their small-scale rows (Prec, Rec, F1 and, for the method
	// rows, the template count; the seconds column is wall clock).
	for header, want := range map[string][]string{
		"coarse edge strictness": {
			"1 0.987 0.972 0.980",
			"2 0.993 0.884 0.935",
			"3 0.995 0.735 0.846",
			"5 1.000 0.586 0.739",
		},
		"coarse method": {
			"tfidf 0.998 0.980 0.989 74",
			"lsh 0.993 0.991 0.992 75",
		},
	} {
		got := sectionRows(out, header)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s rows = %q, want %q:\n%s", header, got, want, out)
		}
	}
	// Dichotomous search should be optimal on the large majority of real
	// alignments (the paper: "returns the optimal solutions in most
	// cases").
	re := regexp.MustCompile(`dichotomous optimal: \d+ \(([0-9.]+)%\)`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no optimality line:\n%s", out)
	}
	if pct, _ := strconv.ParseFloat(m[1], 64); pct < 80 {
		t.Errorf("dichotomous optimal only %v%%:\n%s", pct, out)
	}
}

// sectionRows returns the data rows of the output section whose header
// contains header, each as its space-joined fields, with the seconds
// column dropped where the section has one.
func sectionRows(out, header string) []string {
	i := strings.Index(out, header)
	if i < 0 {
		return nil
	}
	lines := strings.Split(out[i:], "\n")
	cols := strings.Fields(lines[1])
	var rows []string
	for _, l := range lines[2:] {
		f := strings.Fields(l)
		if len(f) != len(cols) {
			break
		}
		for c := len(cols) - 1; c >= 0; c-- {
			if cols[c] == "seconds" {
				f = append(f[:c], f[c+1:]...)
			}
		}
		rows = append(rows, strings.Join(f, " "))
	}
	return rows
}
