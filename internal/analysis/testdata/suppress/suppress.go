// Package suppress exercises the vet:allow directive parsing edge
// cases: a directive citing the wrong analyzer, a directive above a
// statement spanning several lines, and a bare directive with no
// justification. Driven through ctxerr because its trigger is a single
// expression, easy to place precisely.
package suppress

import "os"

// WrongName cites a different analyzer: the directive does not apply
// and the finding is kept.
func WrongName(name string) {
	//vet:allow maporder wrong analyzer named here
	os.Remove(name) // want "error result of os.Remove discarded"
}

// AboveMultiLine places the directive on the line above a statement
// spanning several lines; the finding anchors to the statement's first
// line, which the directive covers.
func AboveMultiLine(name string, data []byte) {
	//vet:allow ctxerr best-effort cache write, a miss recomputes
	os.WriteFile(name, // want-suppressed "error result of os.WriteFile discarded"
		data, 0o644)
}

func forEach(names []string, f func(string)) {
	for _, name := range names {
		f(name)
	}
}

// SecondLine shows the directive's reach is one line: a finding on the
// second line of a multi-line statement is not covered by a directive
// above the statement.
func SecondLine(names []string) {
	//vet:allow ctxerr only reaches the first line
	forEach(names, func(name string) {
		os.Remove(name) // want "error result of os.Remove discarded"
	})
}

// Bare carries no justification, so it does not suppress.
func Bare(name string) {
	//vet:allow ctxerr
	os.Remove(name) // want "error result of os.Remove discarded"
}
