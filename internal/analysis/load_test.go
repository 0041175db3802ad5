package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// writeModule lays out a throwaway module whose kern package has
// per-GOOS and per-GOARCH file pairs: every target must select exactly
// one file from each pair or the package does not type-check (the
// pairs redeclare the same constants).
func writeModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module loadertest\n\ngo 1.22\n",
		"kern/common.go": `package kern

// Arch and OS are declared once per build-constraint pair; the loaded
// values tell the test which files were selected.
var Selected = archImpl + "/" + osImpl
`,
		"kern/impl_amd64.go": `package kern

const archImpl = "amd64"
`,
		"kern/impl_arm64.go": `package kern

const archImpl = "arm64"
`,
		"kern/impl_other.go": `//go:build !amd64 && !arm64

package kern

const archImpl = "portable"
`,
		"kern/os_linux.go": `package kern

const osImpl = "linux"
`,
		"kern/os_other.go": `//go:build !linux

package kern

const osImpl = "other"
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLoaderHostDefault checks the package loads under the host's build
// constraints: with them ignored, both halves of a pair would be parsed
// and type-checking would fail on the redeclared constants.
func TestLoaderHostDefault(t *testing.T) {
	root := writeModule(t)
	loader, err := NewLoader(root, "")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if _, err := loader.LoadDir(filepath.Join(root, "kern")); err != nil {
		t.Fatalf("LoadDir host default: %v", err)
	}
}
