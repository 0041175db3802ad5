package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one parsed and type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// A Loader parses and type-checks packages without the go/packages
// machinery (this module is dependency-free). Import resolution is
// three-way:
//
//   - paths under the module path load from the module tree;
//   - paths under FixtureRoot (when set) load GOPATH-style from that
//     directory, so analysistest fixtures can import tiny stand-in
//     packages that live next to them;
//   - everything else is delegated to the standard library's source
//     importer, which type-checks GOROOT packages from source (no
//     pre-built export data is assumed to exist).
//
// _test.go files are never loaded: the invariants the analyzers enforce
// are production-code contracts, and test helpers routinely (and
// harmlessly) allocate, range over maps, and read the clock.
type Loader struct {
	ModulePath  string
	ModuleRoot  string
	FixtureRoot string

	fset *token.FileSet
	std  types.Importer

	mu   sync.Mutex
	pkgs map[string]*Package
}

// sharedFset is process-global so every Loader (and the stdlib source
// importer, which caches type-checked GOROOT packages per fset) reuses
// one position table and one stdlib type-check per test binary.
var (
	sharedFset    = token.NewFileSet()
	sharedStdOnce sync.Once
	sharedStd     types.Importer
)

func stdImporter() types.Importer {
	sharedStdOnce.Do(func() {
		sharedStd = importer.ForCompiler(sharedFset, "source", nil)
	})
	return sharedStd
}

// NewLoader builds a loader rooted at the module directory containing
// go.mod (moduleRoot). fixtureRoot may be empty.
func NewLoader(moduleRoot, fixtureRoot string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		ModulePath:  modPath,
		ModuleRoot:  moduleRoot,
		FixtureRoot: fixtureRoot,
		fset:        sharedFset,
		std:         stdImporter(),
		pkgs:        map[string]*Package{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Import implements types.Importer over the three-way resolution scheme.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks dir as import path, with full analysis
// info. Exactly one *Package ever exists per import path — Import and
// LoadDir share this cache, so a package reached first as a dependency
// and later analyzed directly (or vice versa) is the same types.Package
// instance and type identity holds across the whole load.
func (l *Loader) load(path, dir string) (*Package, error) {
	l.mu.Lock()
	if p, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		return p, nil
	}
	l.mu.Unlock()

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.mu.Lock()
	l.pkgs[path] = pkg
	l.mu.Unlock()
	return pkg, nil
}

// dirFor maps an import path to a directory under the module or fixture
// roots; ok is false for paths resolved elsewhere (standard library).
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), true
	}
	if l.FixtureRoot != "" {
		dir := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
	}
	return "", false
}

// parseDir parses the non-test .go files of dir, sorted by name for
// deterministic diagnostics. Build constraints (file suffixes and
// //go:build lines) are honored for the host GOOS/GOARCH, so per-arch
// file pairs type-check as the compiler would build them here.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadDir loads the package in dir with full syntax and type information
// for analysis.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

// importPathFor derives the import path of an absolute directory from the
// loader's roots.
func (l *Loader) importPathFor(abs string) (string, error) {
	// The fixture root nests inside the module tree, so try it first: a
	// fixture package's path must be its path relative to the fixtures,
	// not a module-qualified testdata path.
	for _, root := range []struct{ dir, prefix string }{
		{l.FixtureRoot, ""},
		{l.ModuleRoot, l.ModulePath},
	} {
		if root.dir == "" {
			continue
		}
		rootAbs, err := filepath.Abs(root.dir)
		if err != nil {
			continue
		}
		rel, err := filepath.Rel(rootAbs, abs)
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			continue
		}
		if rel == "." {
			if root.prefix == "" {
				break
			}
			return root.prefix, nil
		}
		p := filepath.ToSlash(rel)
		if root.prefix != "" {
			p = root.prefix + "/" + p
		}
		return p, nil
	}
	return "", fmt.Errorf("analysis: %s is outside the module and fixture roots", abs)
}
