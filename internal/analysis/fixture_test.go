package analysis

import (
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe matches an expectation comment: `// want` followed by one or
// more backquoted regexes, each expecting one diagnostic on that line.
var wantRe = regexp.MustCompile("^//\\s*want((?:\\s+`[^`]*`)+)\\s*$")

var wantArgRe = regexp.MustCompile("`[^`]*`")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// RunFixture loads testdata/<analyzer>/src/<pkg>, runs the analyzer with
// suppression directives applied (exactly as cmd/ucudnn-lint does), and
// checks the surviving diagnostics against the fixture's trailing
// want comments: every diagnostic must be expected, every expectation
// must fire.
func RunFixture(t *testing.T, a *Analyzer, pkgdir string) {
	t.Helper()
	pkg := loadFixture(t, a.Name, pkgdir)
	res, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	diags := res.Diags

	// Collect expectations keyed by (file, line).
	type key struct {
		file string
		line int
	}
	expects := map[key][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, raw := range wantArgRe.FindAllString(m[1], -1) {
					expects[k] = append(expects[k], &expectation{
						re: regexp.MustCompile(raw[1 : len(raw)-1]),
					})
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, e := range expects[k] {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for k, es := range expects {
		for _, e := range es {
			if !e.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none",
					filepath.Base(k.file), k.line, e.re)
			}
		}
	}
}

// loadFixture loads one fixture package with FixtureRoot set so intra-
// fixture imports (e.g. the metricname obs stand-in) resolve.
func loadFixture(t *testing.T, analyzer, pkgdir string) *Package {
	t.Helper()
	moduleRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fixtureRoot := filepath.Join("testdata", analyzer, "src")
	loader, err := NewLoader(moduleRoot, fixtureRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join(fixtureRoot, pkgdir))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", pkgdir, err)
	}
	return pkg
}
