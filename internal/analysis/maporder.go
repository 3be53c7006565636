package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder guards the pipeline's byte-identical-output invariant: Go map
// iteration order is random per run, so a `range` over a map must not
// let that order leak into anything observable. The analyzer flags a map
// range whose body (including calls through locally-defined helper
// closures, one level deep) appends to a slice declared outside the
// loop, writes to a writer/printer/hash that outlives the loop, or sends
// on a channel — unless the appended slice is sorted by a later
// statement of the same block (the sort re-establishes a canonical
// order) or the site carries a `//vet:ordered <reason>` justification.
//
// Commutative uses — counting into another map, reductions like max or
// sum — are not flagged: they are order-insensitive by construction.
var MapOrder = &Analyzer{
	Name: "maporder",
	Run:  runMapOrder,
}

// writeMethods are method or function names that emit bytes somewhere
// order-sensitive: an io.Writer, a string builder, a printer, a hash, or
// an encoder.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true, "Encode": true,
}

func runMapOrder(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		closures := localClosures(pass, file)
		stmtLists(file, func(list []ast.Stmt) {
			for i, stmt := range list {
				rs, ok := unlabel(stmt).(*ast.RangeStmt)
				if !ok || !isMapType(typeOf(pass, rs.X)) {
					continue
				}
				checkMapRange(pass, rs, list[i+1:], closures)
			}
		})
	}
}

// mapRangeScan accumulates the order-sensitive effects found in one map
// range body.
type mapRangeScan struct {
	pass     *Pass
	closures map[types.Object]*ast.FuncLit
	spans    []span // the range body plus any scanned closure bodies
	visited  map[*ast.FuncLit]bool

	appendTargets []types.Object // outside slices appended to
	other         []string       // non-append effects (writes, sends)
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, rest []ast.Stmt, closures map[types.Object]*ast.FuncLit) {
	scan := &mapRangeScan{
		pass:     pass,
		closures: closures,
		spans:    []span{nodeSpan(rs)},
		visited:  map[*ast.FuncLit]bool{},
	}
	scan.walk(rs.Body, 0)
	if len(scan.appendTargets) == 0 && len(scan.other) == 0 {
		return
	}
	// A later sort of every appended slice restores a canonical order —
	// but only if appends were the sole order-sensitive effect.
	if len(scan.other) == 0 && allSortedLater(pass, rest, scan.appendTargets) {
		return
	}
	pass.Reportf(rs.For, "iteration order of map %s leaks into %s; sort the result or annotate //vet:ordered <reason>",
		types.ExprString(rs.X), scan.describe())
}

func (s *mapRangeScan) describe() string {
	var parts []string
	for _, t := range s.appendTargets {
		parts = append(parts, fmt.Sprintf("append to %q", t.Name()))
	}
	parts = append(parts, s.other...)
	return strings.Join(parts, ", ")
}

// walk scans a body for order-sensitive effects, following calls to
// locally-bound closures one level deep.
func (s *mapRangeScan) walk(body ast.Node, depth int) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			s.scanAssign(x)
		case *ast.SendStmt:
			if ch := rootExpr(x.Chan); ch != nil {
				if obj := objectOf(s.pass, ch); obj != nil && !declaredWithin(obj, s.spans) {
					s.other = append(s.other, fmt.Sprintf("send on channel %q", ch.Name))
				}
			}
		case *ast.CallExpr:
			s.scanCall(x, depth)
		}
		return true
	})
}

// scanAssign records appends whose target slice is declared outside the
// scanned code. Appends into a map cell (m[k] = append(m[k], v)) are
// per-key and therefore order-insensitive; they are ignored.
func (s *mapRangeScan) scanAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltin(s.pass, call, "append") {
			continue
		}
		lhs := unparen(as.Lhs[i])
		if _, ok := lhs.(*ast.IndexExpr); ok {
			continue // per-key/per-index append, order-insensitive
		}
		root := rootExpr(lhs)
		if root == nil {
			continue
		}
		obj := objectOf(s.pass, root)
		if obj == nil || declaredWithin(obj, s.spans) {
			continue
		}
		for _, t := range s.appendTargets {
			if t == obj {
				obj = nil
				break
			}
		}
		if obj != nil {
			s.appendTargets = append(s.appendTargets, obj)
		}
	}
}

// scanCall flags write-like calls on receivers that outlive the loop and
// follows locally-bound helper closures.
func (s *mapRangeScan) scanCall(call *ast.CallExpr, depth int) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if !writeMethods[fun.Sel.Name] {
			return
		}
		root := rootExpr(fun.X)
		if root == nil {
			return
		}
		if path := pkgNamePath(s.pass, root); path != "" {
			// Package-level printer (fmt.Printf, log.Println): always
			// order-sensitive — the destination is process-global.
			s.other = append(s.other, fmt.Sprintf("call to %s.%s", root.Name, fun.Sel.Name))
			return
		}
		obj := objectOf(s.pass, root)
		if obj != nil && !declaredWithin(obj, s.spans) {
			s.other = append(s.other, fmt.Sprintf("%s.%s", root.Name, fun.Sel.Name))
		}
	case *ast.Ident:
		if depth >= 2 {
			return
		}
		obj := objectOf(s.pass, fun)
		lit, ok := s.closures[obj]
		if !ok || s.visited[lit] {
			return
		}
		s.visited[lit] = true
		s.spans = append(s.spans, nodeSpan(lit))
		s.walk(lit.Body, depth+1)
	}
}

// allSortedLater reports whether every appended target is the argument of
// a sort/slices call in the statements following the range loop.
func allSortedLater(pass *Pass, rest []ast.Stmt, targets []types.Object) bool {
	if len(targets) == 0 {
		return false
	}
	sorted := make(map[types.Object]bool)
	for _, stmt := range rest {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := unparen(fun.X).(*ast.Ident)
			if !ok {
				return true
			}
			path := pkgNamePath(pass, pkgID)
			if path != "sort" && path != "slices" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok {
						if obj := objectOf(pass, id); obj != nil {
							sorted[obj] = true
						}
					}
					return true
				})
			}
			return true
		})
	}
	for _, t := range targets {
		if !sorted[t] {
			return false
		}
	}
	return true
}
