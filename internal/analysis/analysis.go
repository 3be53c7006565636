// Package analysis is the project's stdlib-only static-analysis suite
// (go/parser + go/ast + go/types, no golang.org/x/tools). Its gate is
// TestRepoSelfCheck, which every `go test ./...` runs over the whole
// module (and `make vet` runs beside go vet). The suite enforces the
// invariants the pipeline's correctness argument rests on:
//
//   - maporder — byte-identical output must not depend on map iteration
//     order: a range over a map may not append to a slice, write output,
//     feed a hash, or send on a channel unless the result is sorted
//     afterwards or the site is annotated.
//   - floateq — MDL costs accumulate floating-point lg terms (Eq. 2–4),
//     so exact == / != on cost values silently diverges across
//     architectures; sites must use mdl.ApproxEq.
//   - ctxerr — dropped errors and discarded (value, ok) results in
//     non-test files.
//
// One analyzer is interprocedural. It reads the return-alias facts of
// the fact layer (facts.go): per-function summaries, memoized bottom-up
// over the call DAG, of which inputs a function's results may alias:
//
//   - scratchalias — a sub-slice or pointer derived from a pooled
//     scratch or arena chunk must not escape its owner: no return, no
//     store into a global or caller-visible struct, no channel send, no
//     use after Reset/Put.
//
// Races, goroutine joins and channel shutdown are left to the race
// detector and the tests; copies of lock-bearing values are go vet's
// copylocks check.
//
// Findings are suppressed by a justification comment on the offending
// line or the line above it:
//
//	//vet:ordered <reason>          (maporder only)
//	//vet:allow <analyzer> <reason> (any analyzer)
//
// A reason is required: a bare directive does not suppress.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// File is the path of the offending file, relative to the module
	// root when possible.
	File string
	// Line and Col locate the finding (1-based).
	Line int
	Col  int
	// Message states the violated invariant and the expected fix.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Fset positions every node.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package

	analyzer *Analyzer
	mod      *Module
	root     string
	diags    *[]Diagnostic
}

// Facts exposes the module's interprocedural fact layer to analyzers.
func (p *Pass) Facts() *Facts {
	return p.mod.Facts()
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	file := position.Filename
	if p.root != "" {
		if rel, err := filepath.Rel(p.root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check.
type Analyzer struct {
	// Name is the analyzer's report name and its //vet:allow key.
	Name string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Analyzers returns the full suite in reporting order: the intra-package
// checks first, then the fact-layer analyzer.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, FloatEq, CtxErr, ScratchAlias}
}

// Run applies the analyzers to every package of the module, filters
// comment-suppressed findings, and returns the kept and suppressed
// diagnostics, each sorted by file, line, and column.
func Run(mod *Module, azs []*Analyzer) (kept, suppressed []Diagnostic) {
	var all []Diagnostic
	for _, pkg := range mod.Pkgs {
		all = append(all, runPackage(mod, pkg, azs)...)
	}
	index := suppressionIndex(mod)
	for _, d := range all {
		if index.suppresses(d) {
			suppressed = append(suppressed, d)
		} else {
			kept = append(kept, d)
		}
	}
	sortDiags(kept)
	sortDiags(suppressed)
	return kept, suppressed
}

// RunPackage applies the analyzers to a single package (used by the
// golden-file tests on testdata packages) with the same suppression
// filtering as Run.
func RunPackage(mod *Module, pkg *Package, azs []*Analyzer) (kept, suppressed []Diagnostic) {
	// Register the extra package so fact summaries see its functions
	// before any analyzer queries them.
	mod.Facts().AddPackage(pkg)
	all := runPackage(mod, pkg, azs)
	index := newSuppressions()
	for _, f := range pkg.Files {
		index.addFile(mod.Fset, f, mod.Root)
	}
	for _, d := range all {
		if index.suppresses(d) {
			suppressed = append(suppressed, d)
		} else {
			kept = append(kept, d)
		}
	}
	sortDiags(kept)
	sortDiags(suppressed)
	return kept, suppressed
}

func runPackage(mod *Module, pkg *Package, azs []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, az := range azs {
		pass := &Pass{
			Fset:     mod.Fset,
			Pkg:      pkg,
			analyzer: az,
			mod:      mod,
			root:     mod.Root,
			diags:    &diags,
		}
		az.Run(pass)
	}
	return diags
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// suppressions indexes //vet: directives by file and line.
type suppressions struct {
	// byFile maps a (possibly root-relative) filename to line → set of
	// suppressed analyzer names.
	byFile map[string]map[int]map[string]bool
}

func newSuppressions() *suppressions {
	return &suppressions{byFile: make(map[string]map[int]map[string]bool)}
}

func suppressionIndex(mod *Module) *suppressions {
	s := newSuppressions()
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			s.addFile(mod.Fset, f, mod.Root)
		}
	}
	return s
}

// addFile records every directive of one file. Directive comments are
// deliberately not exposed by ast.CommentGroup.Text (they look like
// pragmas), so the raw comment list is scanned.
func (s *suppressions) addFile(fset *token.FileSet, f *ast.File, root string) {
	for _, group := range f.Comments {
		for _, c := range group.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue
			}
			var analyzer, rest string
			if r, ok := strings.CutPrefix(text, "vet:ordered"); ok {
				analyzer, rest = MapOrder.Name, r
			} else if r, ok := strings.CutPrefix(text, "vet:allow"); ok {
				fields := strings.Fields(r)
				if len(fields) < 1 {
					continue
				}
				analyzer, rest = fields[0], strings.Join(fields[1:], " ")
			} else {
				continue
			}
			if strings.TrimSpace(rest) == "" {
				// A justification is mandatory; a bare directive is inert.
				continue
			}
			pos := fset.Position(c.Pos())
			file := pos.Filename
			if root != "" {
				if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
			}
			lines := s.byFile[file]
			if lines == nil {
				lines = make(map[int]map[string]bool)
				s.byFile[file] = lines
			}
			if lines[pos.Line] == nil {
				lines[pos.Line] = make(map[string]bool)
			}
			lines[pos.Line][analyzer] = true
		}
	}
}

// suppresses reports whether a directive on the diagnostic's line or the
// line immediately above covers it.
func (s *suppressions) suppresses(d Diagnostic) bool {
	lines, ok := s.byFile[d.File]
	if !ok {
		return false
	}
	for _, line := range []int{d.Line, d.Line - 1} {
		if lines[line][d.Analyzer] {
			return true
		}
	}
	return false
}
