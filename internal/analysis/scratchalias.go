package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ScratchAlias guards the pooled-scratch lifetime invariant the hot
// paths rely on (align.Scratch, poa.Scratch, the stream arenas,
// matchScratch, fineScratch): memory carved out of a pooled scratch or
// arena is owned by the pool and recycled behind the caller's back, so a
// sub-slice or pointer derived from it must not outlive the function
// that borrowed it. The analyzer taints every expression that reads
// buffer memory off a pool-typed value — directly (sc.overlap,
// sc.sorted[:0]) or through helpers whose return-alias facts say they
// hand back input memory (grow(&sc.order, n), arena.copyIn, table) —
// and flags four escapes: returning tainted memory, storing it into a
// global or a caller-visible struct (a pointer receiver or pointer
// parameter that is not itself the pool), sending it on a channel, and
// using it after the pool's Reset or Put.
//
// Functions whose pool arrives as a pool-typed parameter or receiver are
// pool plumbing: no finding fires inside them, and the fact layer
// propagates their aliasing to callers, where ownership is visible.
// Stores through local variables and by-value parameters stay legal —
// the caller sees a copy, and pinning pool-backed views inside
// caller-owned structures (stream.register's arena-backed templates) is
// the documented arena contract.
var ScratchAlias = &Analyzer{
	Name: "scratchalias",
	Run:  runScratchAlias,
}

func runScratchAlias(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sc := &scratchScan{pass: pass, facts: pass.Facts(), fd: fd}
			sc.run()
		}
	}
}

// scratchScan analyzes one function declaration.
type scratchScan struct {
	pass  *Pass
	facts *Facts
	fd    *ast.FuncDecl

	// inputs maps parameter/receiver objects to true.
	inputs map[types.Object]bool
	// taint maps each tainted local variable to the pool root object its
	// memory came from.
	taint map[types.Object]types.Object
}

func (s *scratchScan) run() {
	s.inputs = make(map[types.Object]bool)
	for _, obj := range inputObjs(s.pass.Pkg, s.fd) {
		if obj != nil {
			s.inputs[obj] = true
		}
	}
	s.flow()
	s.check()
}

// ownedRoot reports whether root is a pool base this function owns.
// Pool-typed parameters and receivers are extern — their owner is the
// caller, and the fact layer carries the aliasing up.
func (s *scratchScan) ownedRoot(root types.Object) bool {
	if root == nil {
		return false
	}
	if s.inputs[root] && isPoolType(root.Type()) {
		return false
	}
	return true
}

// poolRootOf walks down an expression hunting for a pool-typed
// sub-expression and returns its owned base object: &sc.colRank → sc,
// d.tokA → d. Returns nil when no owned pool is reached.
func (s *scratchScan) poolRootOf(e ast.Expr) types.Object {
	for {
		e = unparen(e)
		if isPoolType(pkgTypeOf(s.pass.Pkg, e)) {
			base := e
			if u, ok := base.(*ast.UnaryExpr); ok && u.Op == token.AND {
				base = u.X // rootExpr does not walk through &x
			}
			id := rootExpr(base)
			if id == nil {
				return nil
			}
			root := pkgObjectOf(s.pass.Pkg, id)
			if s.ownedRoot(root) {
				return root
			}
			return nil
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// taintOf returns the pool root object whose memory e may carry, or nil.
func (s *scratchScan) taintOf(e ast.Expr) types.Object {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if obj := pkgObjectOf(s.pass.Pkg, x); obj != nil {
			return s.taint[obj]
		}
	case *ast.SelectorExpr:
		// Reading buffer memory off a pool value: sc.overlap. The pool
		// object itself (a *Scratch field or pointer) is not tainted —
		// handing the pool around is how pooling works.
		t := pkgTypeOf(s.pass.Pkg, x)
		if aliasable(t) && !isPoolType(t) {
			if root := s.poolRootOf(x.X); root != nil {
				return root
			}
		}
		return s.taintOf(x.X)
	case *ast.IndexExpr:
		return s.taintOf(x.X)
	case *ast.SliceExpr:
		return s.taintOf(x.X)
	case *ast.StarExpr:
		return s.taintOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return s.taintOf(x.X)
		}
	case *ast.TypeAssertExpr:
		// pool.Get().([]byte) — the assertion does not copy.
		return s.taintOf(x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if root := s.taintOf(elt); root != nil {
				return root
			}
		}
	case *ast.CallExpr:
		return s.callTaint(x)
	}
	return nil
}

// callTaint propagates taint through calls: append keeps its first
// argument's memory; sync.Pool.Get hands out pool memory; any callee
// whose return-alias facts include an input slot taints the result when
// the corresponding argument is tainted or pool-rooted.
func (s *scratchScan) callTaint(call *ast.CallExpr) types.Object {
	if pkgIsBuiltin(s.pass.Pkg, call, "append") && len(call.Args) > 0 {
		return s.taintOf(call.Args[0])
	}
	fn, _ := pkgCalleeObject(s.pass.Pkg, call).(*types.Func)
	if fn == nil {
		return nil
	}
	if fn.Name() == "Get" && isSyncType(recvTypeOf(fn), "sync", "Pool") {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id := rootExpr(sel.X); id != nil {
				if root := pkgObjectOf(s.pass.Pkg, id); s.ownedRoot(root) {
					return root
				}
			}
		}
		return nil
	}
	bits := s.facts.RetAliases(fn)
	if bits == 0 {
		return nil
	}
	for i, arg := range callInputExprs(call, fn) {
		if i >= 64 || arg == nil || bits&(1<<uint(i)) == 0 {
			continue
		}
		if root := s.taintOf(arg); root != nil {
			return root
		}
		if root := s.poolRootOf(arg); root != nil {
			return root
		}
	}
	return nil
}

// flow taints local variables to a fixpoint.
func (s *scratchScan) flow() {
	s.taint = make(map[types.Object]types.Object)
	for {
		changed := false
		ast.Inspect(s.fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(lhs ast.Expr, root types.Object) {
				if root == nil {
					return
				}
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					return
				}
				obj := pkgObjectOf(s.pass.Pkg, id)
				if obj == nil || s.inputs[obj] || isPkgLevel(obj) {
					return
				}
				// Copying a scalar out of a pooled buffer (x := v[0]) is
				// how borrows end; only aliasing types carry taint.
				if !aliasable(obj.Type()) {
					return
				}
				if s.taint[obj] == nil {
					s.taint[obj] = root
					changed = true
				}
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i := range as.Rhs {
					mark(as.Lhs[i], s.taintOf(as.Rhs[i]))
				}
			} else if len(as.Rhs) == 1 {
				root := s.taintOf(as.Rhs[0])
				for _, lhs := range as.Lhs {
					mark(lhs, root)
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

func (s *scratchScan) check() {
	pkg := s.pass.Pkg
	ast.Inspect(s.fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if !aliasable(pkgTypeOf(pkg, res)) {
					continue // v[0] is a value copy, not an alias
				}
				if root := s.taintOf(res); root != nil {
					s.pass.Reportf(res.Pos(),
						"returns memory backed by pooled scratch %q; the pool recycles it behind the caller — copy it out (append([]T(nil), v...)) or take the pool as a parameter so the fact layer tracks it",
						root.Name())
				}
			}
		case *ast.SendStmt:
			if !aliasable(pkgTypeOf(pkg, x.Value)) {
				return true
			}
			if root := s.taintOf(x.Value); root != nil {
				s.pass.Reportf(x.Arrow,
					"sends memory backed by pooled scratch %q on a channel; the receiver outlives the borrow window — send a copy",
					root.Name())
			}
		case *ast.AssignStmt:
			rhsRoot := func(i int) types.Object {
				if len(x.Lhs) == len(x.Rhs) {
					return s.taintOf(x.Rhs[i])
				}
				if len(x.Rhs) == 1 {
					return s.taintOf(x.Rhs[0])
				}
				return nil
			}
			for i, lhs := range x.Lhs {
				if !aliasable(pkgTypeOf(pkg, lhs)) {
					continue
				}
				root := rhsRoot(i)
				if root == nil {
					continue
				}
				s.checkStore(lhs, root)
			}
		}
		return true
	})
	s.checkUseAfterReset()
	_ = pkg
}

// checkStore flags a tainted store whose destination outlives the borrow
// window: a package-level variable, or a field of a pointer receiver or
// pointer parameter that is not itself the pool. Locals, by-value
// parameters, and the pool's own fields (sc.sorted = sorted) are legal.
func (s *scratchScan) checkStore(lhs ast.Expr, root types.Object) {
	lhs = unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		// A local write is tracked by the taint flow; a package-level
		// write escapes the borrow window.
		if base := pkgObjectOf(s.pass.Pkg, id); isPkgLevel(base) {
			s.pass.Reportf(lhs.Pos(),
				"stores memory backed by pooled scratch %q into package variable %q; the pool recycles it while the global still points at it — copy first",
				root.Name(), base.Name())
		}
		return
	}
	// Walk the access path: a pool-typed prefix means the store targets
	// the pool's own storage.
	for e := lhs; ; {
		e = unparen(e)
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if isPoolType(pkgTypeOf(s.pass.Pkg, x.X)) {
				return
			}
			e = x.X
			continue
		case *ast.IndexExpr:
			if isPoolType(pkgTypeOf(s.pass.Pkg, x.X)) {
				return
			}
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		}
		break
	}
	id := rootExpr(lhs)
	if id == nil {
		return
	}
	base := pkgObjectOf(s.pass.Pkg, id)
	if base == nil {
		return
	}
	if isPkgLevel(base) {
		s.pass.Reportf(lhs.Pos(),
			"stores memory backed by pooled scratch %q into package variable %q; the pool recycles it while the global still points at it — copy first",
			root.Name(), base.Name())
		return
	}
	if s.inputs[base] {
		if _, isPtr := base.Type().Underlying().(*types.Pointer); isPtr && !isPoolType(base.Type()) {
			s.pass.Reportf(lhs.Pos(),
				"stores memory backed by pooled scratch %q into caller-visible %q; the caller keeps the struct after the pool recycles the buffer — copy first",
				root.Name(), base.Name())
		}
	}
}

// checkUseAfterReset flags positional use-after-free within one
// statement list: once sc.Reset() or pool.Put(x) runs, memory tainted
// from that pool is dead.
func (s *scratchScan) checkUseAfterReset() {
	stmtLists(s.fd.Body, func(list []ast.Stmt) {
		dead := make(map[types.Object]bool)
		for _, stmt := range list {
			if len(dead) > 0 {
				s.reportDeadUses(stmt, dead)
			}
			if root := s.resetRoot(stmt); root != nil {
				dead[root] = true
			}
		}
	})
}

// resetRoot returns the owned pool root a statement resets, if any:
// `sc.Reset()` or `pool.Put(x)` with sc/pool pool-typed.
func (s *scratchScan) resetRoot(stmt ast.Stmt) types.Object {
	es, ok := unlabel(stmt).(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Reset" && sel.Sel.Name != "Put") {
		return nil
	}
	if !isPoolType(pkgTypeOf(s.pass.Pkg, sel.X)) {
		return nil
	}
	id := rootExpr(sel.X)
	if id == nil {
		return nil
	}
	root := pkgObjectOf(s.pass.Pkg, id)
	if !s.ownedRoot(root) {
		return nil
	}
	return root
}

func (s *scratchScan) reportDeadUses(stmt ast.Stmt, dead map[types.Object]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkgObjectOf(s.pass.Pkg, id)
		if obj == nil {
			return true
		}
		if root := s.taint[obj]; root != nil && dead[root] {
			s.pass.Reportf(id.Pos(),
				"uses %q after %q was Reset/Put; the pool has reclaimed the backing memory — move the use before the release or copy",
				id.Name, root.Name())
		}
		return true
	})
}

// recvTypeOf returns a method's receiver type, or nil for functions.
func recvTypeOf(fn *types.Func) types.Type {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return sig.Recv().Type()
	}
	return nil
}
