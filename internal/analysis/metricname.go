package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// MetricName enforces the observability naming scheme documented in
// README.md ("Observability") on every obs.Registry registration call
// (Counter / Gauge / Histogram):
//
//   - series names are compile-time string constants matching
//     ucudnn_* snake_case, so dashboards can rely on them;
//   - counter names end in _total (Prometheus convention); gauge and
//     histogram names do not;
//   - labels are built inline with obs.L and constant snake_case names;
//   - a series name is registered with one stable label set and one
//     metric kind throughout a package.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "obs registrations must use constant ucudnn_* snake_case names with stable label sets",
	Run:  runMetricName,
}

var (
	metricNameRe = regexp.MustCompile(`^ucudnn(_[a-z0-9]+)+$`)
	labelNameRe  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// metricReg records one registration site for stability checks.
type metricReg struct {
	kind   string
	labels string // comma-joined sorted label names; "?" when unknown
	pos    string
}

func runMetricName(pass *Pass) error {
	seen := map[string]metricReg{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := registryCall(pass, call)
			if !ok {
				return true
			}
			checkRegistration(pass, call, kind, seen)
			return true
		})
	}
	return nil
}

// registryCall reports whether call is obs.Registry.Counter / Gauge /
// Histogram, identified by method name and receiver type (a Registry
// named type declared in a package named "obs").
func registryCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	kind := sel.Sel.Name
	if kind != "Counter" && kind != "Gauge" && kind != "Histogram" {
		return "", false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil {
		return "", false
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return kind, isNamed(recv, "obs", "Registry")
}

func checkRegistration(pass *Pass, call *ast.CallExpr, kind string, seen map[string]metricReg) {
	if len(call.Args) == 0 {
		return
	}
	nameArg := call.Args[0]
	tv := pass.TypesInfo.Types[nameArg]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(nameArg.Pos(),
			"metric name must be a compile-time string constant so the series set is knowable statically")
		return
	}
	name := constant.StringVal(tv.Value)
	if !metricNameRe.MatchString(name) {
		pass.Reportf(nameArg.Pos(),
			"metric name %q does not match the documented ucudnn_* snake_case scheme", name)
	}
	switch kind {
	case "Counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(nameArg.Pos(),
				"counter %q must end in _total (Prometheus counter convention)", name)
		}
	case "Gauge", "Histogram":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(nameArg.Pos(),
				"%s %q must not end in _total (reserved for counters)", strings.ToLower(kind), name)
		}
	}

	// Label arguments: Counter/Gauge labels start at arg 1, Histogram at
	// arg 2 (after the bucket bounds).
	labelStart := 1
	if kind == "Histogram" {
		labelStart = 2
	}
	labelSet, known := "", true
	if len(call.Args) > labelStart {
		var names []string
		for _, arg := range call.Args[labelStart:] {
			ln, ok := labelCallName(pass, arg)
			if !ok {
				pass.Reportf(arg.Pos(),
					"label must be built inline with obs.L and a constant name; dynamic label sets defeat the stable-series contract")
				known = false
				continue
			}
			if !labelNameRe.MatchString(ln) {
				pass.Reportf(arg.Pos(), "label name %q must be snake_case ([a-z][a-z0-9_]*)", ln)
			}
			names = append(names, ln)
		}
		sort.Strings(names)
		labelSet = strings.Join(names, ",")
	}
	if call.Ellipsis.IsValid() {
		known = false
	}
	if !known {
		labelSet = "?"
	}

	// Stability: one kind and one label set per series name per package.
	pos := pass.Fset.Position(call.Pos()).String()
	if prev, ok := seen[name]; ok {
		if prev.kind != kind {
			pass.Reportf(call.Pos(),
				"metric %q registered as %s here but as %s at %s; a series has one kind", name, kind, prev.kind, prev.pos)
		}
		if prev.labels != "?" && labelSet != "?" && prev.labels != labelSet {
			pass.Reportf(call.Pos(),
				"metric %q registered with label set {%s} here but {%s} at %s; label sets must be stable", name, labelSet, prev.labels, prev.pos)
		}
	} else {
		seen[name] = metricReg{kind: kind, labels: labelSet, pos: pos}
	}
}

// labelCallName extracts the constant label name from an obs.L("name",
// value) argument.
func labelCallName(pass *Pass, arg ast.Expr) (string, bool) {
	call, ok := arg.(*ast.CallExpr)
	if !ok || len(call.Args) < 1 {
		return "", false
	}
	var fname string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fname = fun.Name
	case *ast.SelectorExpr:
		fname = fun.Sel.Name
	default:
		return "", false
	}
	if fname != "L" {
		return "", false
	}
	tv := pass.TypesInfo.Types[call.Args[0]]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// All is the ucudnn-lint analyzer suite in execution order.
var All = []*Analyzer{
	Detlint, Hotpath, WSFloor, MetricName, FaultPoint, PhaseName,
}
