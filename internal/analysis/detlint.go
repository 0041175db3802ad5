package analysis

import (
	"go/ast"
	"go/types"
)

// Detlint enforces the determinism contract of the optimizer and kernel
// packages (internal/conv, internal/core, internal/ilp):
// the WR/WD optimizers and the kernels they schedule must produce
// bit-identical results run to run, so code in those packages must not
// let map iteration order, the wall clock, or a random source influence
// what it computes or emits.
var Detlint = &Analyzer{
	Name: "detlint",
	Doc: "flag nondeterminism sources (map iteration, time.Now, math/rand) " +
		"in the optimizer and kernel packages",
	Run: runDetlint,
}

// detlintScope is the set of package-path leaf elements detlint applies
// to — the packages feeding the optimizers and kernels.
var detlintScope = map[string]bool{
	"conv": true,
	"core": true,
	"ilp":  true,
}

func runDetlint(pass *Pass) error {
	if !detlintScope[pkgPathElem(pass.ImportPath)] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.CallExpr:
				checkClockAndRand(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags ranging over a map unless the loop only collects
// keys/values into a slice (the canonical collect-then-sort pattern —
// order-insensitive because the slice is sorted, or because membership
// alone matters).
func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if isCollectOnlyBody(pass, rs.Body) {
		return
	}
	pass.Reportf(rs.Pos(),
		"range over map %s: iteration order is nondeterministic and may reach float accumulation or emitted output; iterate indices or sorted keys instead (determinism contract)",
		types.TypeString(t, types.RelativeTo(pass.Pkg)))
}

// isCollectOnlyBody reports whether every statement in the loop body is
// an append into a slice: `s = append(s, ...)`.
func isCollectOnlyBody(pass *Pass, body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call.Fun, "append") {
			return false
		}
	}
	return true
}

// checkClockAndRand flags time.Now and any math/rand use: wall-clock
// readings and random draws in optimizer code paths make the DP/ILP
// decisions (and with them the chosen micro-batch configurations)
// irreproducible.
func checkClockAndRand(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" {
			pass.Reportf(call.Pos(),
				"time.Now in optimizer code: DP/ILP decisions must not depend on the wall clock (determinism contract)")
		}
	case "math/rand", "math/rand/v2":
		pass.Reportf(call.Pos(),
			"math/rand.%s in optimizer code: decisions must not depend on a random source (determinism contract)", obj.Name())
	}
}

// isBuiltin reports whether fun denotes the named Go builtin.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}
