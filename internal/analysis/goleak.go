package analysis

import (
	"go/ast"
	"go/types"
)

// GoLeak enforces the join discipline every goroutine in this codebase
// follows: a spawned goroutine must announce completion — close a
// channel, send a result (the daemon's ListenAndServe error channel),
// or call WaitGroup.Done (the par pool workers and the sharder's
// fan-out) — and some path must join that announcement with a receive
// or Wait. A goroutine with no signal can never be waited for; a signal
// nobody receives leaks the goroutine on shutdown paths.
//
// Signals are resolved through the fact layer: `go w.run()` inherits
// run's summary (say, defer close(w.done)), so the join may live in
// another function or package — a `<-w.done` elsewhere is found through
// the module-wide operation index. Signals on local channels must be joined
// in the spawning function; signals on struct fields or package
// variables may be joined anywhere in the module. WaitGroup.Add inside
// the spawned goroutine is flagged separately: Add must happen before
// the spawn or Wait can return early.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "flags goroutines with no completion signal (close/send/Done), " +
		"signals that are never joined (receive/Wait), and wg.Add inside " +
		"the spawned goroutine",
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) {
	facts := pass.Facts()
	idx := facts.Index()
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(pass, facts, idx, fd, g)
				return true
			})
		}
	}
}

func checkGoStmt(pass *Pass, facts *Facts, idx *opIndex, fd *ast.FuncDecl, g *ast.GoStmt) {
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		checkAddInside(pass, lit)
	}
	sigs := facts.GoSignals(pass.Pkg, g)
	if len(sigs) == 0 {
		pass.Reportf(g.Go,
			"goroutine has no completion signal; without a close, send, or wg.Done nothing can ever join it — add a signal and a matching receive/Wait")
		return
	}
	for _, sf := range sigs {
		if sf.obj != nil && hasJoin(idx, sf, fd) {
			return
		}
	}
	// Name one signal in the message so the fix is concrete.
	name := "its completion signal"
	for _, sf := range sigs {
		if sf.obj != nil {
			name = sf.kind.String() + "(" + sf.obj.Name() + ")"
			break
		}
	}
	pass.Reportf(g.Go,
		"goroutine signals completion via %s but nothing joins it: add a receive (for close/send) or Wait (for Done) on some path",
		name)
}

// hasJoin reports whether the module joins one signal: a Wait for a Done
// signal, a receive (plain, comma-ok, or range) for a close or send
// signal. Local keys must join in the spawning declaration; fields and
// package variables may join anywhere.
func hasJoin(idx *opIndex, sf signalFact, spawnFn *ast.FuncDecl) bool {
	v, ok := sf.obj.(*types.Var)
	if !ok {
		return false
	}
	global := v.IsField() || isPkgLevel(v)
	for _, site := range idx.byKey[sf.obj] {
		if !global && site.fn != spawnFn {
			continue
		}
		switch sf.kind {
		case sigDone:
			if site.kind == opWait {
				return true
			}
		default: // sigClose, sigSend
			if site.kind == opRecv || site.kind == opRecvOk || site.kind == opRecvRange {
				return true
			}
		}
	}
	return false
}

// checkAddInside flags wg.Add on an outer WaitGroup from inside the
// spawned closure: by the time the goroutine runs, Wait may already have
// seen a zero counter and returned.
func checkAddInside(pass *Pass, lit *ast.FuncLit) {
	litSpan := []span{nodeSpan(lit)}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if !isSyncType(typeOf(pass, sel.X), "sync", "WaitGroup") {
			return true
		}
		key := chanKey(pass.Pkg, sel.X)
		if key == nil || declaredWithin(key, litSpan) {
			return true
		}
		pass.Reportf(call.Pos(),
			"wg.Add inside the spawned goroutine races wg.Wait: the counter may still be zero when Wait runs — Add before the go statement")
		return true
	})
}
