package analysis_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"infoshield/internal/analysis"
)

var (
	modOnce sync.Once
	mod     *analysis.Module
	modErr  error
)

// loadRepo type-checks the whole module once and shares it across tests.
func loadRepo(t *testing.T) *analysis.Module {
	t.Helper()
	modOnce.Do(func() { mod, modErr = analysis.LoadModule("../..") })
	if modErr != nil {
		t.Fatalf("LoadModule: %v", modErr)
	}
	return mod
}

// expectation is the set of acceptable message substrings for one line.
// Every finding on the line must match one substring, and every substring
// must be hit by at least one finding.
type expectation struct {
	substrs []string
	hit     []bool
}

var wantRe = regexp.MustCompile(`//\s*(want|want-suppressed)((?:\s+"[^"]*")+)`)
var quotedRe = regexp.MustCompile(`"([^"]*)"`)

// readWants parses the `// want "..."` and `// want-suppressed "..."`
// markers of one golden file into line-keyed expectations.
func readWants(t *testing.T, path string) (want, wantSup map[int]*expectation) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want = make(map[int]*expectation)
	wantSup = make(map[int]*expectation)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		m := wantRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		e := &expectation{}
		for _, q := range quotedRe.FindAllStringSubmatch(m[2], -1) {
			e.substrs = append(e.substrs, q[1])
			e.hit = append(e.hit, false)
		}
		if m[1] == "want" {
			want[line] = e
		} else {
			wantSup[line] = e
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want, wantSup
}

// matchDiags checks one diagnostic list against one expectation set.
func matchDiags(t *testing.T, kind string, diags []analysis.Diagnostic, wants map[int]*expectation) {
	t.Helper()
	for _, d := range diags {
		e := wants[d.Line]
		if e == nil {
			t.Errorf("unexpected %s finding: %s", kind, d)
			continue
		}
		matched := false
		for i, sub := range e.substrs {
			if regexp.MustCompile(regexp.QuoteMeta(sub)).MatchString(d.Message) {
				e.hit[i] = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s finding on line %d matches no want %q: %s", kind, d.Line, e.substrs, d)
		}
	}
	for line, e := range wants {
		for i, sub := range e.substrs {
			if !e.hit[i] {
				t.Errorf("line %d: no %s finding containing %q", line, kind, sub)
			}
		}
	}
}

// TestAnalyzerGolden runs each analyzer alone over its testdata package
// and compares the kept and suppressed findings against the want
// markers: seeded violations must be detected, annotated sites must be
// suppressed, and clean code must stay clean.
func TestAnalyzerGolden(t *testing.T) {
	repo := loadRepo(t)
	for _, az := range analysis.Analyzers() {
		t.Run(az.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", az.Name)
			pkg, err := repo.LoadExtra(dir)
			if err != nil {
				t.Fatalf("LoadExtra(%s): %v", dir, err)
			}
			kept, suppressed := analysis.RunPackage(repo, pkg, []*analysis.Analyzer{az})
			want, wantSup := readWants(t, filepath.Join(dir, az.Name+".go"))
			matchDiags(t, "kept", kept, want)
			matchDiags(t, "suppressed", suppressed, wantSup)
		})
	}
}

// analyzerNamed picks one analyzer of the suite by name.
func analyzerNamed(t *testing.T, name string) *analysis.Analyzer {
	t.Helper()
	for _, az := range analysis.Analyzers() {
		if az.Name == name {
			return az
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// TestSeededRegressions runs an analyzer over a package seeded with a
// realistic bug copied from the shapes in internal/stream — the escape
// the fact layer exists to catch. Each package carries exactly the bug
// its analyzer must find.
func TestSeededRegressions(t *testing.T) {
	repo := loadRepo(t)
	cases := []struct{ dir, analyzer string }{
		{"arenaleak", "scratchalias"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			az := analyzerNamed(t, tc.analyzer)
			dir := filepath.Join("testdata", "regress", tc.dir)
			pkg, err := repo.LoadExtra(dir)
			if err != nil {
				t.Fatalf("LoadExtra(%s): %v", dir, err)
			}
			kept, suppressed := analysis.RunPackage(repo, pkg, []*analysis.Analyzer{az})
			want, wantSup := readWants(t, filepath.Join(dir, tc.dir+".go"))
			if len(want) == 0 {
				t.Fatal("regression package has no want markers")
			}
			matchDiags(t, "kept", kept, want)
			matchDiags(t, "suppressed", suppressed, wantSup)
		})
	}
}

// TestSuppressionEdgeCases pins the vet:allow parsing rules: a
// directive naming the wrong analyzer keeps the finding, a directive
// above a multi-line statement covers only the statement's first line,
// and a bare directive (no justification) never suppresses.
func TestSuppressionEdgeCases(t *testing.T) {
	repo := loadRepo(t)
	az := analyzerNamed(t, "ctxerr")
	dir := filepath.Join("testdata", "suppress")
	pkg, err := repo.LoadExtra(dir)
	if err != nil {
		t.Fatalf("LoadExtra(%s): %v", dir, err)
	}
	kept, suppressed := analysis.RunPackage(repo, pkg, []*analysis.Analyzer{az})
	want, wantSup := readWants(t, filepath.Join(dir, "suppress.go"))
	matchDiags(t, "kept", kept, want)
	matchDiags(t, "suppressed", suppressed, wantSup)
}

// TestRepoSelfCheck is the static-analysis gate: every analyzer runs
// over every package of the module, and any unsuppressed finding fails
// the test. `go test -v` also lists the findings that a justified
// //vet:allow or //vet:ordered directive suppresses.
func TestRepoSelfCheck(t *testing.T) {
	repo := loadRepo(t)
	kept, suppressed := analysis.Run(repo, analysis.Analyzers())
	for _, d := range kept {
		t.Errorf("unsuppressed finding: %s", d)
	}
	for _, d := range suppressed {
		t.Logf("%s (suppressed)", d)
	}
	t.Logf("%d package(s), %d finding(s), %d suppressed", len(repo.Pkgs), len(kept), len(suppressed))
}
