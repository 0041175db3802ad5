// Command ucudnn-lint runs the internal/analysis suite (see DESIGN.md
// "Static analysis") over the repository.
//
// Usage:
//
//	ucudnn-lint [package patterns]
//
// Patterns are directories relative to the current module, with the
// usual /... suffix for recursion; the default is ./... . Findings can
// be suppressed per line with a justified //ucudnn:allow directive; a
// directive that suppresses nothing is stale and is reported too.
//
// Exit codes: 0 clean; 1 findings or stale allows; 2 load or type
// errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ucudnn/internal/analysis"
)

const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	os.Exit(run())
}

func run() int {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ucudnn-lint [package patterns]")
	}
	flag.Parse() // no flags: -h prints the usage line, anything else exits 2
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expand(patterns)
	if err != nil {
		return fail(err)
	}

	moduleRoot, err := findModuleRoot()
	if err != nil {
		return fail(err)
	}
	loader, err := analysis.NewLoader(moduleRoot, "")
	if err != nil {
		return fail(err)
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return fail(err)
		}
		pkgs = append(pkgs, pkg)
	}

	res, err := analysis.Run(pkgs, analysis.All)
	if err != nil {
		return fail(err)
	}

	cwd, _ := os.Getwd()
	for _, d := range res.Diags {
		fmt.Printf("%s:%d:%d: %s: %s\n", relPath(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	stale := 0
	for _, al := range res.Allows {
		if !al.Used {
			stale++
			fmt.Printf("%s:%d: stale allow: %s -- %s\n", relPath(cwd, al.Pos.Filename), al.Pos.Line, al.Analyzer, al.Justification)
		}
	}
	if len(res.Diags) > 0 || stale > 0 {
		fmt.Fprintf(os.Stderr, "ucudnn-lint: %d finding(s), %d stale allow directive(s)\n", len(res.Diags), stale)
		return exitFindings
	}
	return exitClean
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "ucudnn-lint:", err)
	return exitError
}

func relPath(cwd, file string) string {
	if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// expand turns package patterns into a sorted list of directories that
// contain non-test Go files. testdata, vendor and hidden directories
// are skipped, matching the go tool's pattern semantics.
func expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, p := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			recursive = true
			p = rest
			if p == "." || p == "" {
				p = "."
			}
		}
		if !recursive {
			add(filepath.Clean(p))
			continue
		}
		err := filepath.WalkDir(p, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != p && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(filepath.Clean(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}
