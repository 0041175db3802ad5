package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath enforces the zero-allocation contract on functions annotated
// with //ucudnn:hotpath in their doc comment: the steady-state kernel
// paths behind the 0 allocs/op benchmarks (engine runners, GEMM /
// Winograd / FFT inner loops, the SGEMM micro-kernel). Inside an
// annotated function the analyzer flags every construct the compiler
// may lower to a heap allocation:
//
//   - make, new, append and slice/map composite literals;
//   - function literals (closure environments escape to the heap when
//     the closure does) and go statements;
//   - implicit or explicit conversions of non-constant values to
//     interface types (boxing), which is how fmt-style calls allocate.
//
// The check is local: callees are not inspected. The directive therefore
// belongs on every function a hot loop calls, leaf or not — the engine
// runners and the small helpers they reach (index arithmetic, min/max,
// metric updates) alike; what annotations miss is caught at run time by
// the 0 allocs/op table test (conv.TestForwardZeroAllocSteadyState).
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocating constructs inside //ucudnn:hotpath functions",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasFuncDirective(fd, "hotpath") {
				continue
			}
			report := func(pos token.Pos, msg string) {
				pass.Reportf(pos, "hot path %s: %s", fd.Name.Name, msg)
			}
			// Every allocating construct lexically inside the body,
			// nested function literals included, in source order.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					allocCall(pass.TypesInfo, pass.Pkg, n, report)
				case *ast.FuncLit:
					report(n.Pos(),
						"function literal allocates its closure environment; move parallel dispatch outside //ucudnn:hotpath functions")
				case *ast.GoStmt:
					report(n.Pos(),
						"go statement allocates a goroutine; fork-join belongs outside //ucudnn:hotpath functions")
				case *ast.CompositeLit:
					if t := pass.TypesInfo.TypeOf(n); t != nil {
						switch t.Underlying().(type) {
						case *types.Slice:
							report(n.Pos(), "slice literal allocates")
						case *types.Map:
							report(n.Pos(), "map literal allocates")
						}
					}
				}
				return true
			})
		}
	}
	return nil
}

func allocCall(info *types.Info, pkg *types.Package, call *ast.CallExpr, report func(token.Pos, string)) {
	// Conversions: T(x) with T an interface type boxes x.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && types.IsInterface(tv.Type) && boxes(info, call.Args[0]) {
			report(call.Pos(),
				"conversion to interface "+types.TypeString(tv.Type, types.RelativeTo(pkg))+" allocates (boxing)")
		}
		return
	}
	// Allocating builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make":
				report(call.Pos(), "make allocates; carve scratch from the workspace arena instead")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow its backing array; pre-size buffers outside the hot path")
			}
			return
		}
	}
	// Boxing through interface-typed parameters (fmt-style calls).
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
			if call.Ellipsis.IsValid() {
				pt = nil // passing a ready slice through ... does not box
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if boxes(info, arg) {
			report(arg.Pos(),
				"argument boxes "+types.TypeString(info.TypeOf(arg), types.RelativeTo(pkg))+
					" into interface "+types.TypeString(pt, types.RelativeTo(pkg))+" (allocates)")
		}
	}
}

// boxes reports whether passing e to an interface slot heap-allocates:
// true for non-constant, non-nil values of non-interface type. Constants
// (including string literals, e.g. panic messages) are materialized in
// static data, not boxed at run time.
func boxes(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.IsNil() || tv.Value != nil {
		return false
	}
	if tv.Type == nil || types.IsInterface(tv.Type) {
		return false
	}
	return true
}
