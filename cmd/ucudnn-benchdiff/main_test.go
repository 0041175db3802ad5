package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: ucudnn/internal/conv
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkConvKernels/GEMM-4         	     100	  10947224 ns/op	       0 B/op	       0 allocs/op
BenchmarkConvKernels/WINOGRAD-4     	      50	  20228556 ns/op	      16 B/op	       1 allocs/op
BenchmarkRec	 9000000	       131.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	ucudnn/internal/conv	2.034s
`

func TestParseBenchOutput(t *testing.T) {
	m, err := parseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(m), m)
	}
	g := m["ConvKernels/GEMM"]
	if g.NsPerOp != 10947224 || g.AllocsPerOp != 0 {
		t.Fatalf("GEMM = %+v", g)
	}
	w := m["ConvKernels/WINOGRAD"]
	if w.NsPerOp != 20228556 || w.BytesPerOp != 16 || w.AllocsPerOp != 1 {
		t.Fatalf("WINOGRAD = %+v", w)
	}
	// Unsuffixed names (no -N) parse too, with fractional ns/op.
	if r := m["Rec"]; r.NsPerOp != 131.5 {
		t.Fatalf("Rec = %+v", r)
	}
	// Repeats (-count N): fastest ns/op, worst allocation counts.
	rep, err := parseBenchOutput(strings.NewReader("BenchmarkX 3 300 ns/op 0 B/op 0 allocs/op\n" +
		"BenchmarkX 3 200 ns/op 16 B/op 1 allocs/op\nBenchmarkX 3 250 ns/op 0 B/op 0 allocs/op\n"))
	if x := rep["X"]; err != nil || x.NsPerOp != 200 || x.BytesPerOp != 16 || x.AllocsPerOp != 1 {
		t.Fatalf("repeated X = %+v, %v", x, err)
	}
	if _, err := parseBenchOutput(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Fatal("empty input did not error")
	}
}

func TestEmitProducesSchemaReport(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-emit"}, strings.NewReader(benchOutput), &out, &errOut); code != 0 {
		t.Fatalf("emit exit %d: %s", code, errOut.String())
	}
	var r Report
	if err := json.Unmarshal([]byte(out.String()), &r); err != nil {
		t.Fatal(err)
	}
	if r.Schema != Schema || len(r.Benchmarks) != 3 || r.Host["go"] == "" {
		t.Fatalf("report = %+v", r)
	}
}

// writeReport writes a flat report/v1 file with the given entries.
func writeReport(t *testing.T, dir, name string, benches map[string]Metrics) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(Report{Schema: Schema, Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRegressionDetection is the acceptance-criteria self-test: an
// injected >=15% ns/op regression and an allocs/op increase both fail
// with a non-zero exit, identical reports compare clean.
func TestRegressionDetection(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", map[string]Metrics{
		"A": {NsPerOp: 1000, AllocsPerOp: 0},
		"B": {NsPerOp: 2000, AllocsPerOp: 2},
	})

	t.Run("identical-clean", func(t *testing.T) {
		var out, errOut strings.Builder
		if code := run([]string{base, base}, nil, &out, &errOut); code != 0 {
			t.Fatalf("identical reports exit %d: %s%s", code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "no regressions") {
			t.Fatalf("clean output = %q", out.String())
		}
	})

	t.Run("ns-regression-fails", func(t *testing.T) {
		cur := writeReport(t, dir, "slow.json", map[string]Metrics{
			"A": {NsPerOp: 1160, AllocsPerOp: 0}, // +16% > 15%
			"B": {NsPerOp: 2000, AllocsPerOp: 2},
		})
		var out, errOut strings.Builder
		if code := run([]string{base, cur}, nil, &out, &errOut); code != 1 {
			t.Fatalf("regression exit %d, want 1: %s%s", code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "A: ns/op regressed") {
			t.Fatalf("violation output = %q", out.String())
		}
	})

	t.Run("within-threshold-passes", func(t *testing.T) {
		cur := writeReport(t, dir, "ok.json", map[string]Metrics{
			"A": {NsPerOp: 1140, AllocsPerOp: 0}, // +14% < 15%
			"B": {NsPerOp: 1900, AllocsPerOp: 2},
		})
		var out, errOut strings.Builder
		if code := run([]string{base, cur}, nil, &out, &errOut); code != 0 {
			t.Fatalf("within-threshold exit %d: %s%s", code, out.String(), errOut.String())
		}
	})

	t.Run("alloc-increase-fails", func(t *testing.T) {
		cur := writeReport(t, dir, "allocs.json", map[string]Metrics{
			"A": {NsPerOp: 1000, AllocsPerOp: 1}, // any increase fails
			"B": {NsPerOp: 2000, AllocsPerOp: 2},
		})
		var out, errOut strings.Builder
		if code := run([]string{base, cur}, nil, &out, &errOut); code != 1 {
			t.Fatalf("alloc increase exit %d, want 1: %s%s", code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "A: allocs/op increased 0 -> 1") {
			t.Fatalf("violation output = %q", out.String())
		}
	})

	t.Run("missing-benchmark-fails", func(t *testing.T) {
		cur := writeReport(t, dir, "missing.json", map[string]Metrics{
			"A": {NsPerOp: 1000},
		})
		var out, errOut strings.Builder
		if code := run([]string{base, cur}, nil, &out, &errOut); code != 1 {
			t.Fatalf("missing benchmark exit %d, want 1", code)
		}
		if !strings.Contains(out.String(), "B: missing") {
			t.Fatalf("violation output = %q", out.String())
		}
	})

	t.Run("informational-exits-zero", func(t *testing.T) {
		cur := writeReport(t, dir, "slow2.json", map[string]Metrics{
			"A": {NsPerOp: 5000, AllocsPerOp: 3},
			"B": {NsPerOp: 2000, AllocsPerOp: 2},
		})
		var out, errOut strings.Builder
		if code := run([]string{"-informational", base, cur}, nil, &out, &errOut); code != 0 {
			t.Fatalf("informational exit %d, want 0: %s", code, errOut.String())
		}
		if !strings.Contains(out.String(), "informational mode") {
			t.Fatalf("informational output = %q", out.String())
		}
	})
}

// TestNestedBaselineAndOverrides covers the BENCH_kernels.json shape:
// numbers in an "engine" sub-object and per-benchmark max_regress.
func TestNestedBaselineAndOverrides(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "nested.json")
	nested := `{
	  "description": "committed baseline",
	  "benchmarks": {
	    "ConvKernels/GEMM": {
	      "seed": {"ns_per_op": 15124941, "allocs_per_op": 0},
	      "engine": {"ns_per_op": 10000000, "allocs_per_op": 0},
	      "speedup": 1.38
	    },
	    "ConvKernels/NOISY": {
	      "engine": {"ns_per_op": 1000, "allocs_per_op": 0},
	      "max_regress": 0.5
	    }
	  }
	}`
	if err := os.WriteFile(base, []byte(nested), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := writeReport(t, dir, "cur.json", map[string]Metrics{
		"ConvKernels/GEMM":  {NsPerOp: 11000000, AllocsPerOp: 0}, // +10% vs engine: fine
		"ConvKernels/NOISY": {NsPerOp: 1400, AllocsPerOp: 0},     // +40% < its 50% override
	})
	var out, errOut strings.Builder
	if code := run([]string{base, cur}, nil, &out, &errOut); code != 0 {
		t.Fatalf("nested compare exit %d: %s%s", code, out.String(), errOut.String())
	}
	// Against the seed numbers this would be a huge win; against engine a
	// +65% regression — prove the engine sub-object is what is compared.
	cur2 := writeReport(t, dir, "cur2.json", map[string]Metrics{
		"ConvKernels/GEMM":  {NsPerOp: 16500000, AllocsPerOp: 0},
		"ConvKernels/NOISY": {NsPerOp: 1600, AllocsPerOp: 0}, // +60% > 50% override
	})
	out.Reset()
	if code := run([]string{base, cur2}, nil, &out, &errOut); code != 1 {
		t.Fatalf("nested regression exit %d, want 1: %s", code, out.String())
	}
	for _, want := range []string{"ConvKernels/GEMM: ns/op regressed", "ConvKernels/NOISY: ns/op regressed"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"one.json"}, nil, &out, &errOut); code != 2 {
		t.Fatalf("one-arg exit %d, want 2", code)
	}
	if code := run([]string{"a.json", "b.json"}, nil, &out, &errOut); code != 2 {
		t.Fatalf("nonexistent files exit %d, want 2", code)
	}
	if code := run([]string{"-emit", "extra"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("emit with args exit %d, want 2", code)
	}
}

// TestCommittedBaselineLoads guards the make-check wiring: the repo's
// committed BENCH_kernels.json must stay loadable by this tool.
func TestCommittedBaselineLoads(t *testing.T) {
	b, err := loadBaseline(filepath.Join("..", "..", "BENCH_kernels.json"))
	if err != nil {
		t.Fatal(err)
	}
	g, ok := b["ConvKernels/GEMM"]
	if !ok || g.metrics().NsPerOp <= 0 {
		t.Fatalf("committed baseline GEMM entry = %+v", g)
	}
}
