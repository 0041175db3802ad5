package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
)

// A constNameRule is one row of the constant-name contract shared by
// the profiler and the fault registry: every value of the named type
// pkg.typ handed to a call (or set in a pkg.lit composite literal) must
// be a compile-time string constant matching ^prefix(_[a-z0-9]+)+$.
// Constant names keep each name universe enumerable statically — a cost
// model trained on one build's profile keys, or a fault schedule written
// for it, keeps working on the next — and greppable from a report row or
// a printed schedule straight to the site. The declaring package is
// exempt: it plumbs values of the type through its registry by design.
type constNameRule struct {
	// analyzer is the name findings are reported (and allowed) under.
	analyzer string
	pkg, typ string
	// lit, when set, is a struct type of pkg whose literal fields of
	// type typ are checked too.
	lit    string
	prefix string
	// what and universe word the diagnostics.
	what, universe string
}

var constNameRules = []constNameRule{
	{analyzer: "phasename", pkg: "prof", typ: "Phase", prefix: "ucudnn_ph", what: "profiler phase", universe: "phase"},
	{analyzer: "faultpoint", pkg: "faults", typ: "Point", lit: "Rule", prefix: "ucudnn_fp", what: "fault point", universe: "injection-point"},
}

// PhaseName enforces the profiler naming contract documented in
// DESIGN.md ("Profiling & cost attribution").
var PhaseName = &Analyzer{
	Name: "phasename",
	Doc:  "prof.Phase values must be compile-time ucudnn_ph_* snake_case constants",
	Run:  runConstNames,
}

// FaultPoint enforces the fault-injection naming contract documented in
// DESIGN.md ("Fault injection & graceful degradation"), on call
// arguments (Err / Hit / Grant / Mangle) and faults.Rule literals.
var FaultPoint = &Analyzer{
	Name: "faultpoint",
	Doc:  "faults.Point values must be compile-time ucudnn_fp_* snake_case constants",
	Run:  runConstNames,
}

// runConstNames applies the rows registered under the running
// analyzer's name.
func runConstNames(pass *Pass) error {
	for _, r := range constNameRules {
		if r.analyzer != pass.Analyzer.Name || (pass.Pkg != nil && pass.Pkg.Name() == r.pkg) {
			continue
		}
		re := regexp.MustCompile(`^` + r.prefix + `(_[a-z0-9]+)+$`)
		check := func(exprs []ast.Expr) {
			for _, e := range exprs {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				tv := pass.TypesInfo.Types[e]
				if !isNamed(tv.Type, r.pkg, r.typ) {
					continue
				}
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					pass.Reportf(e.Pos(), "%s must be a compile-time %s.%s constant so the %s universe is enumerable statically",
						r.what, r.pkg, r.typ, r.universe)
				} else if name := constant.StringVal(tv.Value); !re.MatchString(name) {
					pass.Reportf(e.Pos(), "%s %q does not match the %s_* snake_case scheme", r.what, name, r.prefix)
				}
			}
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					check(n.Args)
				case *ast.CompositeLit:
					if r.lit != "" && isNamed(pass.TypesInfo.Types[n].Type, r.pkg, r.lit) {
						check(n.Elts)
					}
				}
				return true
			})
		}
	}
	return nil
}

// isNamed reports whether t is the named type pkg.name (pkg matched by
// package name, so testdata fixtures can stand in for the real one).
func isNamed(t types.Type, pkg, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == pkg
}
