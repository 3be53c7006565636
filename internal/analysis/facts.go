package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural substrate of the suite: per-function
// fact summaries, computed on demand and memoized, plus module-wide
// operation indexes. Memoization with a recursion guard makes the
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

	sig     map[*types.Func][]signalFact
	sigBusy map[*types.Func]bool

	idxVer int
	idx    *opIndex
}

func newFacts(m *Module) *Facts {
	return &Facts{
		mod:     m,
		version: 1,
		ret:     make(map[*types.Func]uint64),
		retBusy: make(map[*types.Func]bool),
		sig:     make(map[*types.Func][]signalFact),
		sigBusy: make(map[*types.Func]bool),
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
// LoadExtra) so its functions get summaries and its operations join the
// module-wide indexes. Idempotent.
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

// objKey is the stable cross-package identity of an object: package
// path, receiver type for methods, then name. Used to order map
// iterations over object-keyed facts deterministically (the maporder
// discipline applies to the analyzers themselves).
func objKey(obj types.Object) string {
	if obj == nil {
		return ""
	}
	key := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			key = sig.Recv().Type().String() + "." + key
		}
	}
	if obj.Pkg() != nil {
		key = obj.Pkg().Path() + "." + key
	}
	return key
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
// Completion-signal facts (goleak)

type sigKind int

const (
	sigClose sigKind = iota // close(ch)
	sigSend                 // ch <- v
	sigDone                 // wg.Done()
)

func (k sigKind) String() string {
	switch k {
	case sigClose:
		return "close"
	case sigSend:
		return "send"
	default:
		return "Done"
	}
}

// signalFact is one completion signal a function emits: closing a
// channel, sending on one, or calling WaitGroup.Done. The target is
// either absolute (a struct field or package-level variable, identified
// by its object) or relative to an input slot, resolved at call sites.
type signalFact struct {
	kind  sigKind
	obj   types.Object // field or package/local var; nil when param-relative
	param int          // input slot when param-relative; -1 otherwise
}

// Signals returns fn's completion-signal facts: every close/send/Done it
// (or a callee, transitively) performs on a field, package variable, or
// input. Locals are excluded — a channel both created and closed inside
// fn signals nothing to callers.
func (f *Facts) Signals(fn *types.Func) []signalFact {
	if fn == nil {
		return nil
	}
	fn = fn.Origin() // instantiated generic method → its declaration

	if sigs, ok := f.sig[fn]; ok {
		return sigs
	}
	f.ensureDecls()
	d := f.decls[fn]
	if d == nil {
		f.sig[fn] = nil
		return nil
	}
	if f.sigBusy[fn] {
		return nil
	}
	f.sigBusy[fn] = true
	inputs := make(map[types.Object]int)
	for i, obj := range inputObjs(d.pkg, d.decl) {
		if obj != nil {
			inputs[obj] = i
		}
	}
	c := &sigCollector{f: f, pkg: d.pkg, inputs: inputs}
	c.walk(d.decl.Body)
	delete(f.sigBusy, fn)
	f.sig[fn] = c.out
	return c.out
}

// GoSignals resolves the completion signals of one `go` statement: a
// closure's body is scanned directly (locals of the spawning function
// are kept — they are the join keys), a named callee contributes its
// facts with param-relative targets substituted by the call arguments.
func (f *Facts) GoSignals(pkg *Package, g *ast.GoStmt) []signalFact {
	c := &sigCollector{f: f, pkg: pkg, keepLocals: true}
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		c.walk(lit.Body)
	} else {
		c.resolveCall(g.Call)
	}
	return c.out
}

type sigCollector struct {
	f          *Facts
	pkg        *Package
	inputs     map[types.Object]int
	keepLocals bool
	out        []signalFact
}

func (c *sigCollector) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			c.add(sigSend, x.Chan)
		case *ast.CallExpr:
			c.resolveCall(x)
		}
		return true
	})
}

// resolveCall records the signals one call contributes: close() and
// WaitGroup.Done() directly, any other named callee via its facts.
func (c *sigCollector) resolveCall(call *ast.CallExpr) {
	if pkgIsBuiltin(c.pkg, call, "close") && len(call.Args) == 1 {
		c.add(sigClose, call.Args[0])
		return
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
		if isSyncType(pkgTypeOf(c.pkg, sel.X), "sync", "WaitGroup") {
			c.add(sigDone, sel.X)
			return
		}
	}
	fn, _ := pkgCalleeObject(c.pkg, call).(*types.Func)
	if fn == nil {
		return
	}
	args := callInputExprs(call, fn)
	for _, sf := range c.f.Signals(fn) {
		if sf.param < 0 {
			c.out = append(c.out, sf)
			continue
		}
		if sf.param < len(args) && args[sf.param] != nil {
			c.add(sf.kind, args[sf.param])
		}
	}
}

// add resolves a signal target expression to a fact, or drops it when
// the target is invisible outside the scanned scope.
func (c *sigCollector) add(kind sigKind, e ast.Expr) {
	obj := chanKey(c.pkg, e)
	if obj == nil {
		return
	}
	if slot, ok := c.inputs[obj]; ok {
		c.out = append(c.out, signalFact{kind: kind, param: slot})
		return
	}
	v, isVar := obj.(*types.Var)
	if !isVar {
		return
	}
	if v.IsField() || isPkgLevel(obj) || c.keepLocals {
		c.out = append(c.out, signalFact{kind: kind, obj: obj, param: -1})
	}
}

// ---------------------------------------------------------------------
// Module-wide operation index (goleak, chanproto, atomicmix)

type opKind int

const (
	opSend opKind = iota
	opClose
	opRecv      // plain <-ch
	opRecvOk    // v, ok := <-ch (incl. select comm clauses)
	opRecvRange // for range ch
	opWait      // wg.Wait()
	opDone      // wg.Done()
	opAdd       // wg.Add(n)
)

// opSite is one channel/WaitGroup operation, located by the object it
// operates on and the function it occurs in.
type opSite struct {
	key  types.Object
	kind opKind
	pos  token.Pos
	pkg  *Package
	fn   *ast.FuncDecl // enclosing top-level declaration
}

// opIndex is the module-wide view the concurrency analyzers share.
type opIndex struct {
	byKey map[types.Object][]opSite
	// locks maps each declaration to the mutex objects it Lock()s or
	// RLock()s anywhere in its body. Two functions locking a common
	// mutex are treated as mutually ordered.
	locks map[*ast.FuncDecl]map[types.Object]bool
	// atomics maps each variable or field passed by address to a
	// sync/atomic function to those call sites.
	atomics map[types.Object][]opSite
}

// sortedKeys orders the index's object keys deterministically.
func (ix *opIndex) sortedKeys(m map[types.Object][]opSite) []types.Object {
	keys := make([]types.Object, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := objKey(keys[i]), objKey(keys[j])
		if a != b {
			return a < b
		}
		return keys[i].Pos() < keys[j].Pos()
	})
	return keys
}

// Index builds (or returns the cached) operation index over every loaded
// package.
func (f *Facts) Index() *opIndex {
	if f.idx != nil && f.idxVer == f.version {
		return f.idx
	}
	ix := &opIndex{
		byKey:   make(map[types.Object][]opSite),
		locks:   make(map[*ast.FuncDecl]map[types.Object]bool),
		atomics: make(map[types.Object][]opSite),
	}
	for _, pkg := range f.packages() {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				indexOps(ix, pkg, fd)
			}
		}
	}
	f.idx = ix
	f.idxVer = f.version
	return ix
}

func indexOps(ix *opIndex, pkg *Package, fd *ast.FuncDecl) {
	add := func(e ast.Expr, kind opKind, pos token.Pos) {
		if key := chanKey(pkg, e); key != nil {
			ix.byKey[key] = append(ix.byKey[key], opSite{key: key, kind: kind, pos: pos, pkg: pkg, fn: fd})
		}
	}
	consumed := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			add(x.Chan, opSend, x.Arrow)
		case *ast.AssignStmt:
			if len(x.Lhs) == 2 && len(x.Rhs) == 1 {
				if recv, ok := unparen(x.Rhs[0]).(*ast.UnaryExpr); ok && recv.Op == token.ARROW {
					consumed[recv] = true
					add(recv.X, opRecvOk, recv.OpPos)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !consumed[x] {
				add(x.X, opRecv, x.OpPos)
			}
		case *ast.RangeStmt:
			if t := pkgTypeOf(pkg, x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					add(x.X, opRecvRange, x.For)
				}
			}
		case *ast.CallExpr:
			if pkgIsBuiltin(pkg, x, "close") && len(x.Args) == 1 {
				add(x.Args[0], opClose, x.Pos())
				return true
			}
			sel, ok := unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				// Package-qualified sync/atomic calls go through the
				// selector case below; plain calls carry nothing else.
				return true
			}
			recvT := pkgTypeOf(pkg, sel.X)
			switch sel.Sel.Name {
			case "Wait":
				if isSyncType(recvT, "sync", "WaitGroup") {
					add(sel.X, opWait, x.Pos())
				}
			case "Done":
				if isSyncType(recvT, "sync", "WaitGroup") {
					add(sel.X, opDone, x.Pos())
				}
			case "Add":
				if isSyncType(recvT, "sync", "WaitGroup") {
					add(sel.X, opAdd, x.Pos())
				}
			case "Lock", "RLock":
				if isSyncType(recvT, "sync", "Mutex") || isSyncType(recvT, "sync", "RWMutex") {
					if key := chanKey(pkg, sel.X); key != nil {
						if ix.locks[fd] == nil {
							ix.locks[fd] = make(map[types.Object]bool)
						}
						ix.locks[fd][key] = true
					}
				}
			}
			if id, ok := sel.X.(*ast.Ident); ok && pkgNamePathOf(pkg, id) == "sync/atomic" {
				for _, arg := range x.Args {
					if u, ok := unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
						if key := chanKey(pkg, u.X); key != nil {
							ix.atomics[key] = append(ix.atomics[key], opSite{key: key, pos: x.Pos(), pkg: pkg, fn: fd})
						}
					}
				}
			}
		}
		return true
	})
}

// commonLock reports whether two declarations lock a common mutex — the
// accept-gate shape: sends under RLock, close under Lock of the same
// mutex are mutually ordered.
func (ix *opIndex) commonLock(a, b *ast.FuncDecl) bool {
	la, lb := ix.locks[a], ix.locks[b]
	if len(la) == 0 || len(lb) == 0 {
		return false
	}
	for k := range la {
		if lb[k] {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Shared resolution helpers

// chanKey resolves a channel/WaitGroup/mutex operand expression to the
// object that identifies it module-wide: a struct field (shared across
// instances — deliberately coarse), a package-level variable, or a
// local. Returns nil for expressions with no stable base.
func chanKey(pkg *Package, e ast.Expr) types.Object {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := pkgObjectOf(pkg, x)
		if _, ok := obj.(*types.Var); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			return sel.Obj()
		}
		if obj := pkgObjectOf(pkg, x.Sel); obj != nil {
			if _, ok := obj.(*types.Var); ok {
				return obj
			}
		}
	case *ast.IndexExpr:
		return chanKey(pkg, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return chanKey(pkg, x.X)
		}
	case *ast.StarExpr:
		return chanKey(pkg, x.X)
	}
	return nil
}

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
