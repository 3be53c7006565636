package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the interprocedural substrate of scratchalias: one kind
// of per-function fact, the return-alias summary, computed on demand and
// memoized. Memoization with a recursion guard makes the
// evaluation effectively bottom-up over the module's call DAG — a leaf
// helper's summary is computed once, on first use, and every caller
// reuses it — without materializing a call graph or depending on
// x/tools.
//
// Facts are deliberately optimistic: an unknown callee (dynamic call,
// conversion, stdlib function without source) contributes nothing. The
// analyzers built on top are linters enforcing repo invariants, not a
// soundness proof, and optimism keeps the false-positive rate near zero
// on real code.

// declInfo pairs a function declaration with the package whose
// types.Info resolves its identifiers.
type declInfo struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// Facts computes and caches interprocedural summaries for one loaded
// module (plus any extra packages registered by the golden-file tests).
type Facts struct {
	mod     *Module
	extra   []*Package
	version int

	declVer int
	decls   map[*types.Func]*declInfo

	ret     map[*types.Func]uint64
	retBusy map[*types.Func]bool
}

func newFacts(m *Module) *Facts {
	return &Facts{
		mod:     m,
		version: 1,
		ret:     make(map[*types.Func]uint64),
		retBusy: make(map[*types.Func]bool),
	}
}

// Facts returns the module's lazily-built fact layer.
func (m *Module) Facts() *Facts {
	if m.facts == nil {
		m.facts = newFacts(m)
	}
	return m.facts
}

// AddPackage registers an extra package (a testdata package loaded by
// LoadExtra) so its functions get summaries. Idempotent.
func (f *Facts) AddPackage(pkg *Package) {
	for _, p := range f.extra {
		if p == pkg {
			return
		}
	}
	for _, p := range f.mod.Pkgs {
		if p == pkg {
			return
		}
	}
	f.extra = append(f.extra, pkg)
	f.version++
}

func (f *Facts) packages() []*Package {
	all := make([]*Package, 0, len(f.mod.Pkgs)+len(f.extra))
	all = append(all, f.mod.Pkgs...)
	return append(all, f.extra...)
}

// ensureDecls (re)builds the function-declaration registry when packages
// have been added since the last build.
func (f *Facts) ensureDecls() {
	if f.decls != nil && f.declVer == f.version {
		return
	}
	f.decls = make(map[*types.Func]*declInfo)
	for _, pkg := range f.packages() {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					f.decls[fn] = &declInfo{pkg: pkg, decl: fd}
				}
			}
		}
	}
	f.declVer = f.version
}

// inputObjs lists a declaration's input objects in slot order: receiver
// first (when present), then parameters. Unnamed inputs occupy a slot as
// nil so slot indexes line up with call-site arguments.
func inputObjs(pkg *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, name := range field.Names {
				out = append(out, pkg.Info.Defs[name])
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return out
}

// callInputExprs aligns a call's receiver and argument expressions with
// the callee's input slots (receiver first). Variadic arguments beyond
// the declared parameters are dropped — facts stay coarse there.
func callInputExprs(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	sig, _ := fn.Type().(*types.Signature)
	var out []ast.Expr
	if sig != nil && sig.Recv() != nil {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, sel.X)
		} else {
			out = append(out, nil)
		}
	}
	nparams := 0
	if sig != nil {
		nparams = sig.Params().Len()
	}
	for i := 0; i < nparams; i++ {
		if i < len(call.Args) {
			out = append(out, call.Args[i])
		} else {
			out = append(out, nil)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Return-alias facts

// RetAliases returns a bitmask over fn's input slots (receiver first,
// then parameters) of which inputs the return values may alias through
// slices, pointers, or maps. grow(p *[]int, n) []int returning (*p)[:n]
// has bit 0 set; arena.copyIn returning a view of the receiver's block
// has the receiver bit set. Functions without module source report 0.
func (f *Facts) RetAliases(fn *types.Func) uint64 {
	if fn == nil {
		return 0
	}
	// A method on an instantiated generic (arena[int32].copyIn) resolves
	// to the instance object at call sites; the declaration registry is
	// keyed by the generic origin.
	fn = fn.Origin()
	if bits, ok := f.ret[fn]; ok {
		return bits
	}
	f.ensureDecls()
	d := f.decls[fn]
	if d == nil {
		f.ret[fn] = 0
		return 0
	}
	if f.retBusy[fn] {
		// Recursive call cycle: the optimistic fixed point is "no alias";
		// the outermost evaluation memoizes the final answer.
		return 0
	}
	f.retBusy[fn] = true
	bits := f.computeRetAliases(d)
	delete(f.retBusy, fn)
	f.ret[fn] = bits
	return bits
}

func (f *Facts) computeRetAliases(d *declInfo) uint64 {
	inputs := make(map[types.Object]uint64)
	for i, obj := range inputObjs(d.pkg, d.decl) {
		if obj != nil && i < 64 {
			inputs[obj] = 1 << uint(i)
		}
	}
	if len(inputs) == 0 {
		return 0
	}
	local := f.aliasFlow(d.pkg, d.decl.Body, inputs)
	results := make(map[types.Object]bool)
	if d.decl.Type.Results != nil {
		for _, field := range d.decl.Type.Results.List {
			for _, name := range field.Names {
				if obj := d.pkg.Info.Defs[name]; obj != nil {
					results[obj] = true
				}
			}
		}
	}
	var bits uint64
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A nested literal's returns are its own, not this function's.
			return false
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				bits |= f.aliasBits(d.pkg, res, inputs, local)
			}
		case *ast.AssignStmt:
			// Named results are return sinks: `out = sc.buf[:n]; return`.
			for i, lhs := range x.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if obj := pkgObjectOf(d.pkg, id); obj != nil && results[obj] {
					if len(x.Lhs) == len(x.Rhs) {
						bits |= f.aliasBits(d.pkg, x.Rhs[i], inputs, local)
					} else if len(x.Rhs) == 1 {
						bits |= f.aliasBits(d.pkg, x.Rhs[0], inputs, local)
					}
				}
			}
		}
		return true
	})
	return bits
}

// aliasFlow propagates input aliasing through local variables to a
// fixpoint: after `x := sc.buf[lo:hi]`, x carries sc's bit.
func (f *Facts) aliasFlow(pkg *Package, body *ast.BlockStmt, inputs map[types.Object]uint64) map[types.Object]uint64 {
	local := make(map[types.Object]uint64)
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(lhs ast.Expr, bits uint64) {
				if bits == 0 {
					return
				}
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					return
				}
				obj := pkgObjectOf(pkg, id)
				if obj == nil || !aliasable(obj.Type()) || inputs[obj] != 0 {
					return
				}
				if local[obj]&bits != bits {
					local[obj] |= bits
					changed = true
				}
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i := range as.Rhs {
					mark(as.Lhs[i], f.aliasBits(pkg, as.Rhs[i], inputs, local))
				}
			} else if len(as.Rhs) == 1 {
				bits := f.aliasBits(pkg, as.Rhs[0], inputs, local)
				for _, lhs := range as.Lhs {
					mark(lhs, bits)
				}
			}
			return true
		})
		if !changed {
			return local
		}
	}
}

// aliasBits reports which input slots e may alias. Aliasing flows
// through selectors, indexing, slicing, dereference, address-of,
// append's first argument, composite-literal elements, and calls whose
// callee facts declare input aliasing.
func (f *Facts) aliasBits(pkg *Package, e ast.Expr, inputs, local map[types.Object]uint64) uint64 {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := pkgObjectOf(pkg, x)
		if obj == nil || !aliasable(obj.Type()) {
			return 0
		}
		if b, ok := inputs[obj]; ok {
			return b
		}
		return local[obj]
	case *ast.SelectorExpr:
		return f.aliasBits(pkg, x.X, inputs, local)
	case *ast.IndexExpr:
		return f.aliasBits(pkg, x.X, inputs, local)
	case *ast.SliceExpr:
		return f.aliasBits(pkg, x.X, inputs, local)
	case *ast.StarExpr:
		return f.aliasBits(pkg, x.X, inputs, local)
	case *ast.TypeAssertExpr:
		return f.aliasBits(pkg, x.X, inputs, local)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return f.aliasBits(pkg, x.X, inputs, local)
		}
	case *ast.CompositeLit:
		var bits uint64
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			bits |= f.aliasBits(pkg, elt, inputs, local)
		}
		return bits
	case *ast.CallExpr:
		if pkgIsBuiltin(pkg, x, "append") && len(x.Args) > 0 {
			return f.aliasBits(pkg, x.Args[0], inputs, local)
		}
		fn, _ := pkgCalleeObject(pkg, x).(*types.Func)
		if fn == nil {
			return 0
		}
		callee := f.RetAliases(fn)
		if callee == 0 {
			return 0
		}
		var bits uint64
		for i, arg := range callInputExprs(x, fn) {
			if i >= 64 {
				break
			}
			if callee&(1<<uint(i)) != 0 && arg != nil {
				bits |= f.aliasBits(pkg, arg, inputs, local)
			}
		}
		return bits
	}
	return 0
}

// ---------------------------------------------------------------------
// Shared resolution helpers

// isPkgLevel reports whether obj is a package-level variable.
func isPkgLevel(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// isSyncType reports whether t (or the type it points to) is the named
// type pkgPath.name.
func isSyncType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// aliasable reports whether values of t can alias other storage: slices,
// pointers, and maps. Strings and struct/array values copy; channels and
// funcs are tracked by the op index instead.
func aliasable(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}

// isPoolType reports whether t (or its pointee) is a pooled-scratch
// type: a named type whose name mentions scratch or arena, or
// sync.Pool. This is the naming contract DESIGN §8 documents — pooled
// buffers are recognizable by name, module-wide.
func isPoolType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if isSyncType(t, "sync", "Pool") {
		return true
	}
	name := strings.ToLower(named.Obj().Name())
	return strings.Contains(name, "scratch") || strings.Contains(name, "arena")
}
