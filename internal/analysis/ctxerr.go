package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxErr flags silently dropped results in non-test files: a call whose
// error result is discarded by using it as a statement, and multi-value
// assignments that blank an error or a trailing ok bool while keeping
// the other results. Both hide failures that the pipeline's callers are
// expected to surface.
//
// Deliberate escape valves, in order of preference:
//
//   - `_ = f()` as a lone blank assignment is an explicit, visible
//     acknowledgment and is not flagged;
//   - `//vet:allow ctxerr <reason>` suppresses a site that must stay
//     best-effort (e.g. ANSI rendering to a caller-supplied writer).
//
// Never-fail writers are excluded outright: methods of strings.Builder
// and bytes.Buffer, hash writers, and fmt.Print/Printf/Println to
// stdout. fmt.Fprint* drops are excluded in functions that cannot
// return an error (void report renderers are best-effort by contract)
// but flagged in functions that do return one — there the error must be
// threaded, not dropped. Deferred calls (defer f.Close()) are also
// excluded — flagging the read-path Close convention would be noise.
var CtxErr = &Analyzer{
	Name: "ctxerr",
	Run:  runCtxErr,
}

func runCtxErr(pass *Pass) {
	for i, file := range pass.Pkg.Files {
		if strings.HasSuffix(pass.Pkg.Filenames[i], "_test.go") {
			continue
		}
		var walk func(n ast.Node, canReturnErr bool)
		walk = func(n ast.Node, canReturnErr bool) {
			switch x := n.(type) {
			case nil:
				return
			case *ast.FuncDecl:
				walkChildren(x, func(c ast.Node) { walk(c, funcReturnsError(pass, x.Type)) })
				return
			case *ast.FuncLit:
				walkChildren(x, func(c ast.Node) { walk(c, funcReturnsError(pass, x.Type)) })
				return
			case *ast.ExprStmt:
				if call, ok := unparen(x.X).(*ast.CallExpr); ok {
					if errorResult(pass, call) >= 0 && !neverFails(pass, call) &&
						!(isFprint(pass, call) && !canReturnErr) {
						pass.Reportf(call.Pos(), "error result of %s discarded; handle it, assign to _ explicitly, or annotate //vet:allow ctxerr <reason>",
							calleeName(pass, call))
					}
				}
			case *ast.AssignStmt:
				checkBlankedResults(pass, x)
			}
			walkChildren(n, func(c ast.Node) { walk(c, canReturnErr) })
		}
		walk(file, false)
	}
}

// funcReturnsError reports whether a signature includes an error result.
func funcReturnsError(pass *Pass, ft *ast.FuncType) bool {
	if ft.Results == nil {
		return false
	}
	for _, field := range ft.Results.List {
		if isErrorType(typeOf(pass, field.Type)) {
			return true
		}
	}
	return false
}

// isFprint reports whether the call is fmt.Fprint/Fprintf/Fprintln — a
// best-effort write to a caller-supplied writer.
func isFprint(pass *Pass, call *ast.CallExpr) bool {
	fun, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := unparen(fun.X).(*ast.Ident)
	if !ok || pkgNamePath(pass, id) != "fmt" {
		return false
	}
	switch fun.Sel.Name {
	case "Fprint", "Fprintf", "Fprintln":
		return true
	}
	return false
}

// checkBlankedResults flags `v, _ := f()` where the blank swallows an
// error or a trailing ok bool while other results are kept.
func checkBlankedResults(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 || len(as.Lhs) < 2 {
		return
	}
	call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || neverFails(pass, call) {
		return
	}
	tuple, ok := typeOf(pass, call).(*types.Tuple)
	if !ok || tuple.Len() != len(as.Lhs) {
		return
	}
	anyKept := false
	for _, lhs := range as.Lhs {
		if id, ok := unparen(lhs).(*ast.Ident); !ok || id.Name != "_" {
			anyKept = true
		}
	}
	if !anyKept {
		return // x, _ := ... with all blanks cannot happen; _, _ is explicit
	}
	for i, lhs := range as.Lhs {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		t := tuple.At(i).Type()
		switch {
		case isErrorType(t):
			pass.Reportf(lhs.Pos(), "error result of %s blanked while other results are kept; handle the error",
				calleeName(pass, call))
		case i == tuple.Len()-1 && isBoolType(t):
			pass.Reportf(lhs.Pos(), "ok result of %s blanked; a false ok usually means the value is not usable",
				calleeName(pass, call))
		}
	}
}

// errorResult returns the index of the first error in the call's result
// tuple, or -1.
func errorResult(pass *Pass, call *ast.CallExpr) int {
	t := typeOf(pass, call)
	if t == nil {
		return -1
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return i
			}
		}
		return -1
	}
	if isErrorType(t) {
		return 0
	}
	return -1
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}

// neverFails excludes callees documented never to return a non-nil
// error, plus best-effort stdout printing.
func neverFails(pass *Pass, call *ast.CallExpr) bool {
	fun, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// fmt.Print / fmt.Printf / fmt.Println: stdout, best effort.
	if id, ok := unparen(fun.X).(*ast.Ident); ok {
		if pkgNamePath(pass, id) == "fmt" {
			switch fun.Sel.Name {
			case "Print", "Printf", "Println":
				return true
			}
		}
	}
	// Methods on never-fail receivers.
	recv := typeOf(pass, fun.X)
	if recv == nil {
		return false
	}
	for _, name := range []string{"strings.Builder", "bytes.Buffer",
		"hash.Hash", "hash.Hash32", "hash.Hash64", "hash/maphash.Hash"} {
		if typeNamed(recv, name) {
			return true
		}
	}
	return false
}

// typeNamed reports whether t (or its pointee) is the named type
// pkg.Name.
func typeNamed(t types.Type, full string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path()+"."+obj.Name() == full
}

// calleeName renders the call target for messages.
func calleeName(pass *Pass, call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
