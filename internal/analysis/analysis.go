// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: Analyzer values inspect one
// type-checked package at a time and report position-tagged diagnostics.
//
// It exists because the engine's three load-bearing promises — bitwise
// determinism at every worker count, the MinWorkspace floor, and
// zero-allocation kernel hot paths (see DESIGN.md "Kernel execution
// engine") — are contracts that spot tests can only sample. The six
// analyzers in this package (detlint, hotpath, wsfloor, metricname,
// faultpoint, phasename) check them, and the naming rules of the
// telemetry tables, file by file on every build via cmd/ucudnn-lint,
// which make check runs.
//
// # Suppressing a finding
//
// A finding can be silenced with a justification directive on the flagged
// line or the line directly above it:
//
//	//ucudnn:allow <analyzer> -- <justification>
//
// The justification is mandatory; a directive without one is itself a
// diagnostic. Directives name exactly one analyzer, so a line needing two
// suppressions carries two directives. A directive that suppresses
// nothing is stale, and cmd/ucudnn-lint fails on it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static check over one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ucudnn:allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects the package in pass and reports findings via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run over one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ImportPath is the slash-separated path the package was loaded as
	// (module-qualified for repo packages).
	ImportPath string

	diags []Diagnostic
}

// A Diagnostic is one finding, tagged with the reporting analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// directivePrefix introduces every ucudnn analysis directive.
const directivePrefix = "//ucudnn:"

// A directive is one parsed //ucudnn: comment.
type directive struct {
	verb string // "allow", "hotpath", ...
	args string // text after the verb, trimmed
	pos  token.Position
}

// parseDirectives extracts //ucudnn: directives from every comment in the
// files.
func parseDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, directivePrefix)
				verb := rest
				args := ""
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					verb, args = rest[:i], strings.TrimSpace(rest[i+1:])
				}
				out = append(out, directive{verb: verb, args: args, pos: fset.Position(c.Pos())})
			}
		}
	}
	return out
}

// allowRe splits an allow directive's arguments into the analyzer name
// and the mandatory justification after "--".
var allowRe = regexp.MustCompile(`^([a-z][a-z0-9]*)\s*--\s*(.*)$`)

// An Allow is one parsed //ucudnn:allow directive.
type Allow struct {
	// Analyzer is the analyzer the directive names.
	Analyzer string
	// Justification is the mandatory text after "--".
	Justification string
	// Pos is the directive's position.
	Pos token.Position
	// Used reports whether the run suppressed at least one diagnostic
	// with this directive. An unused allow is stale: its justification
	// no longer corresponds to a finding.
	Used bool
}

// A Result is the outcome of a Run: surviving diagnostics sorted by
// position, plus every suppression directive in load order.
type Result struct {
	Diags  []Diagnostic
	Allows []Allow
}

// Run executes the analyzers over every package. A finding on the line
// of a valid //ucudnn:allow directive naming its analyzer, or on the
// line below one, is dropped and marks the directive Used; a malformed
// or justification-free directive is itself a diagnostic.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	type site struct {
		analyzer, file string
		line           int
	}
	res := &Result{}
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				ImportPath: pkg.ImportPath,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
			diags = append(diags, pass.diags...)
		}

		covered := map[site]int{} // index into res.Allows
		for _, d := range parseDirectives(pkg.Fset, pkg.Files) {
			if d.verb != "allow" {
				continue
			}
			m := allowRe.FindStringSubmatch(d.args)
			if m == nil || strings.TrimSpace(m[2]) == "" {
				diags = append(diags, Diagnostic{
					Analyzer: "directive",
					Pos:      d.pos,
					Message:  "malformed //ucudnn:allow directive: want \"//ucudnn:allow <analyzer> -- <justification>\" with a non-empty justification",
				})
				continue
			}
			res.Allows = append(res.Allows, Allow{
				Analyzer:      m[1],
				Justification: strings.TrimSpace(m[2]),
				Pos:           d.pos,
			})
			// A directive covers its own line (trailing-comment form)
			// and the next (comment-above form); the first directive to
			// claim a line keeps it.
			for _, line := range []int{d.pos.Line, d.pos.Line + 1} {
				s := site{m[1], d.pos.Filename, line}
				if _, dup := covered[s]; !dup {
					covered[s] = len(res.Allows) - 1
				}
			}
		}

		for _, d := range diags {
			if i, ok := covered[site{d.Analyzer, d.Pos.Filename, d.Pos.Line}]; ok {
				res.Allows[i].Used = true
				continue
			}
			res.Diags = append(res.Diags, d)
		}
	}
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}

// funcDirectives returns the //ucudnn: verbs attached to a function
// declaration's doc comment.
func funcDirectives(fd *ast.FuncDecl) []string {
	if fd.Doc == nil {
		return nil
	}
	var verbs []string
	for _, c := range fd.Doc.List {
		if !strings.HasPrefix(c.Text, directivePrefix) {
			continue
		}
		rest := strings.TrimPrefix(c.Text, directivePrefix)
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			rest = rest[:i]
		}
		verbs = append(verbs, rest)
	}
	return verbs
}

// hasFuncDirective reports whether fd's doc comment carries the verb.
func hasFuncDirective(fd *ast.FuncDecl, verb string) bool {
	for _, v := range funcDirectives(fd) {
		if v == verb {
			return true
		}
	}
	return false
}

// pkgPathElem reports whether the final element of the import path equals
// elem ("ucudnn/internal/core" -> "core"). Analyzers that apply to a
// fixed set of packages match on it, so testdata fixtures can opt in by
// directory name.
func pkgPathElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
