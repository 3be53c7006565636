package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatEq guards the reproducibility of the MDL arithmetic: template and
// data costs (Eq. 2–4) are sums of lg terms, so two mathematically equal
// costs computed along different code paths — or on different
// architectures, where fused multiply-add and 80-bit spills change the
// last ulps — need not be bit-identical. Exact == / != between such
// values silently diverges; comparisons must go through mdl.ApproxEq.
//
// A float comparison is flagged when either operand "traces to" the cost
// model: it contains a call into internal/mdl or internal/slotinfo, a
// call to a function whose name mentions Cost, an identifier or field
// whose name mentions cost, or a local variable assigned from any such
// expression (propagated to a fixpoint within the enclosing function).
// Ordinary float comparisons — scores, coordinates, ratios with no cost
// provenance — are not flagged.
var FloatEq = &Analyzer{
	Name: "floateq",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		// Visit every function body with its own taint set.
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFloatEqIn(pass, fn.Body)
				}
				return false
			case *ast.FuncLit:
				// Reached only for package-level literals (var f = func...);
				// nested literals are scanned with their enclosing body so
				// taint flows across the closure boundary.
				checkFloatEqIn(pass, fn.Body)
				return false
			}
			return true
		})
	}
}

func checkFloatEqIn(pass *Pass, body *ast.BlockStmt) {
	tainted := taintedVars(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if !isFloatType(typeOf(pass, be.X)) && !isFloatType(typeOf(pass, be.Y)) {
			return true
		}
		if exprTaint(pass, be.X, tainted) || exprTaint(pass, be.Y, tainted) {
			pass.Reportf(be.OpPos, "exact float %s on MDL cost values; lg-term sums differ in the last ulps across code paths and architectures — use mdl.ApproxEq",
				be.Op)
		}
		return true
	})
}

// taintedVars computes, to a fixpoint, the local variables of one
// function body whose value derives from a cost expression.
func taintedVars(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(lhs ast.Expr) {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					return
				}
				obj := objectOf(pass, id)
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if exprTaint(pass, rhs, tainted) {
						mark(as.Lhs[i])
					}
				}
			} else if len(as.Rhs) == 1 && exprTaint(pass, as.Rhs[0], tainted) {
				for _, lhs := range as.Lhs {
					mark(lhs)
				}
			}
			return true
		})
		if !changed {
			return tainted
		}
	}
}

// exprTaint reports whether an expression derives from the MDL cost
// model.
func exprTaint(pass *Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if callTaint(pass, x) {
				found = true
				return false
			}
		case *ast.SelectorExpr:
			if nameMentionsCost(x.Sel.Name) {
				found = true
				return false
			}
		case *ast.Ident:
			if nameMentionsCost(x.Name) {
				found = true
				return false
			}
			if obj := objectOf(pass, x); obj != nil && tainted[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// callTaint reports whether a call targets the cost model: any function
// of internal/mdl or internal/slotinfo, or any function whose name
// mentions Cost (template.Fit.TotalCost, align.WildBounder.Cost, ...).
func callTaint(pass *Pass, call *ast.CallExpr) bool {
	obj := calleeObject(pass, call)
	if obj == nil {
		return false
	}
	if nameMentionsCost(obj.Name()) {
		return true
	}
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "internal/mdl" || strings.HasSuffix(path, "/internal/mdl") ||
		path == "internal/slotinfo" || strings.HasSuffix(path, "/internal/slotinfo")
}

func nameMentionsCost(name string) bool {
	return strings.Contains(strings.ToLower(name), "cost")
}
