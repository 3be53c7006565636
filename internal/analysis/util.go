package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// typeOf returns the type of e in the pass's package, or nil.
func typeOf(p *Pass, e ast.Expr) types.Type {
	return pkgTypeOf(p.Pkg, e)
}

// pkgTypeOf is typeOf for code that holds a Package, not a Pass (the
// fact layer resolves expressions in packages other than the one under
// analysis).
func pkgTypeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// objectOf resolves an identifier to its object (use or definition).
func objectOf(p *Pass, id *ast.Ident) types.Object {
	return pkgObjectOf(p.Pkg, id)
}

// pkgObjectOf is objectOf against an explicit package.
func pkgObjectOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isFloatType reports whether t's underlying type is a floating-point
// basic type (typed or untyped).
func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootExpr strips index, selector, star, and paren layers off an
// assignable expression, returning the base identifier or nil. For
// `sel.shards[s]` it returns `sel`; for `*p` it returns `p`.
func rootExpr(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// span is a source region; spans answer "was this object declared inside
// the code being scanned?".
type span struct{ pos, end token.Pos }

func nodeSpan(n ast.Node) span { return span{n.Pos(), n.End()} }

func (s span) contains(p token.Pos) bool { return p >= s.pos && p <= s.end }

// declaredWithin reports whether obj's declaration lies inside any of the
// spans. Objects without a position (package names, builtins) are never
// "within".
func declaredWithin(obj types.Object, spans []span) bool {
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	for _, s := range spans {
		if s.contains(obj.Pos()) {
			return true
		}
	}
	return false
}

// walkChildren visits n's immediate children.
func walkChildren(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			visit(c)
		}
		return false
	})
}

// pkgNamePath returns the imported package path when id names an imported
// package (e.g. the `fmt` in fmt.Printf), or "".
func pkgNamePath(p *Pass, id *ast.Ident) string {
	if pn, ok := objectOf(p, id).(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// unparen strips parentheses (local stand-in for go1.22's ast.Unparen,
// kept toolchain-portable).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeObject resolves a call's target: the function or method object,
// or nil for builtins, conversions, and dynamic calls through values.
func calleeObject(p *Pass, call *ast.CallExpr) types.Object {
	return pkgCalleeObject(p.Pkg, call)
}

// pkgCalleeObject is calleeObject against an explicit package.
func pkgCalleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := pkgObjectOf(pkg, fun); obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		// Package-qualified call: fmt.Printf, mdl.DocCost.
		if obj := pkgObjectOf(pkg, fun.Sel); obj != nil {
			return obj
		}
	}
	return nil
}

// isBuiltin reports whether a call invokes the named builtin.
func isBuiltin(p *Pass, call *ast.CallExpr, name string) bool {
	return pkgIsBuiltin(p.Pkg, call, name)
}

// pkgIsBuiltin is isBuiltin against an explicit package.
func pkgIsBuiltin(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pkgObjectOf(pkg, id).(*types.Builtin)
	return ok
}

// localClosures maps each variable that is directly bound to a function
// literal in this file (x := func(...){...}) to that literal, letting
// analyzers see one call level through helper closures.
func localClosures(p *Pass, file *ast.File) map[types.Object]*ast.FuncLit {
	out := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := objectOf(p, id); obj != nil {
					out[obj] = lit
				}
			}
		}
		return true
	})
	return out
}

// stmtLists visits every statement list under root (block bodies, case
// and select clauses) exactly once.
func stmtLists(root ast.Node, visit func(list []ast.Stmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.BlockStmt:
			visit(b.List)
		case *ast.CaseClause:
			visit(b.Body)
		case *ast.CommClause:
			visit(b.Body)
		}
		return true
	})
}

// unlabel unwraps labeled statements (`retry: for ... {}`).
func unlabel(s ast.Stmt) ast.Stmt {
	for {
		l, ok := s.(*ast.LabeledStmt)
		if !ok {
			return s
		}
		s = l.Stmt
	}
}
