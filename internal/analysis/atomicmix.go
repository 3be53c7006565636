package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicMix enforces the mixed-access memory-model invariant around the
// stats counters the daemon carries: a variable or field that any code
// updates through sync/atomic (atomic.AddInt64(&c.hits, 1)) is owned by
// the atomic protocol everywhere — a plain read or write elsewhere is a
// data race the race detector only catches when the interleaving fires
// in CI. The module-wide atomic index makes this check interprocedural:
// the atomic site and the plain site can live in different packages.
// Typed atomics (atomic.Int64, as serve's WAL counters in wal.go use)
// are method-only and immune by construction — preferring them is the
// suggested fix.
//
// Copies of lock-bearing values are go vet's copylocks check, which
// `make vet` and CI run alongside this suite.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "flags plain reads/writes of fields that are accessed via " +
		"sync/atomic elsewhere",
	Run: runAtomicMix,
}

func runAtomicMix(pass *Pass) {
	idx := pass.Facts().Index()
	for _, file := range pass.Pkg.Files {
		checkMixedAccess(pass, idx, file)
	}
}

// checkMixedAccess reports plain uses of atomically-accessed objects.
// Arguments of sync/atomic calls themselves are skipped wholesale —
// &x.f inside atomic.AddInt64 is the protocol, not a violation.
func checkMixedAccess(pass *Pass, idx *opIndex, file *ast.File) {
	if len(idx.atomics) == 0 {
		return
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && pkgNamePath(pass, id) == "sync/atomic" {
					return false
				}
			}
		case *ast.SelectorExpr:
			if obj := fieldObj(pass.Pkg, x); obj != nil {
				if sites := idx.atomics[obj]; len(sites) > 0 {
					pass.Reportf(x.Sel.Pos(),
						"plain access to %q, which %s updates via sync/atomic; this races with the atomic sites — use atomic.Load/Store here or switch the field to a typed atomic",
						obj.Name(), siteFunc(sites[0]))
				}
				return false
			}
		case *ast.Ident:
			obj := objectOf(pass, x)
			if obj == nil {
				return true
			}
			if _, ok := obj.(*types.Var); !ok {
				return true
			}
			if v := obj.(*types.Var); v.IsField() {
				return true // covered by the selector case
			}
			if sites := idx.atomics[obj]; len(sites) > 0 {
				pass.Reportf(x.Pos(),
					"plain access to %q, which %s updates via sync/atomic; this races with the atomic sites — use atomic.Load/Store here or switch to a typed atomic",
					obj.Name(), siteFunc(sites[0]))
			}
		}
		return true
	}
	ast.Inspect(file, visit)
}

// fieldObj resolves a selector to the struct field it reads, or nil.
func fieldObj(pkg *Package, sel *ast.SelectorExpr) types.Object {
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

// siteFunc names the function holding an op site, for the message.
func siteFunc(site opSite) string {
	if site.fn != nil {
		return site.fn.Name.Name
	}
	return "another function"
}
