package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func kernelOpts(shape, filter string, pad, stride int, op, dev, policy string, ws int64, db string, front bool) runOpts {
	return runOpts{Shape: shape, Filter: filter, Pad: pad, Stride: stride, Op: op,
		Device: dev, Policy: policy, WSMiB: ws, DB: db, ShowFront: front}
}

func TestParseDims(t *testing.T) {
	d, err := parseDims("256x64x27x27", 4)
	if err != nil || d[0] != 256 || d[3] != 27 {
		t.Fatalf("parseDims: %v %v", d, err)
	}
	if _, err := parseDims("1x2x3", 4); err == nil {
		t.Fatal("wrong arity must error")
	}
	if _, err := parseDims("1x0x3", 3); err == nil {
		t.Fatal("zero dim must error")
	}
	if _, err := parseDims("axbxc", 3); err == nil {
		t.Fatal("non-numeric must error")
	}
}

func TestRunAllOps(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db.jsonl")
	for _, op := range []string{"forward", "backward-data", "backward-filter"} {
		if err := run(kernelOpts("16x8x13x13", "12x3x3", 1, 1, op, "p100", "powerOfTwo", 8, db, true)); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
}

// TestRunNetWD covers the ISSUE acceptance criterion: an AlexNet WD run
// with -metrics reports optimizer wall-clock, DP state counts, ILP
// variable/node counts, and cache traffic.
func TestRunNetWD(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.txt")
	o := runOpts{Net: "alexnet", Batch: 64, TotalMiB: 128, Device: "p100",
		Policy: "powerOfTwo"}
	o.Metrics = metrics
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		"ucudnn_opt_wd_seconds",
		"ucudnn_opt_desirable_dp_states_total",
		"ucudnn_ilp_variables",
		"ucudnn_ilp_nodes_total",
		"ucudnn_cache_misses_total",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("metrics output lacks %s:\n%s", want, s)
		}
	}
}

func TestRunKernelMetrics(t *testing.T) {
	o := kernelOpts("16x8x13x13", "12x3x3", 1, 1, "forward", "p100", "powerOfTwo", 8, "", true)
	o.Metrics = filepath.Join(t.TempDir(), "m.prom")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# TYPE ucudnn_opt_wr_seconds histogram") {
		t.Fatal("Prometheus output lacks WR histogram")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(kernelOpts("bad", "12x3x3", 1, 1, "forward", "p100", "powerOfTwo", 8, "", false)); err == nil {
		t.Fatal("bad shape must error")
	}
	if err := run(kernelOpts("16x8x13x13", "12x3x3", 1, 1, "sideways", "p100", "powerOfTwo", 8, "", false)); err == nil {
		t.Fatal("bad op must error")
	}
	if err := run(kernelOpts("16x8x13x13", "12x3x3", 1, 1, "forward", "abacus", "powerOfTwo", 8, "", false)); err == nil {
		t.Fatal("bad device must error")
	}
	if err := run(kernelOpts("16x8x13x13", "12x3x3", 1, 1, "forward", "p100", "sometimes", 8, "", false)); err == nil {
		t.Fatal("bad policy must error")
	}
	// Kernel larger than padded input: invalid convolution.
	if err := run(kernelOpts("1x1x2x2", "1x5x5", 0, 1, "forward", "p100", "powerOfTwo", 8, "", false)); err == nil {
		t.Fatal("invalid convolution must error")
	}
	if err := run(runOpts{Net: "alexnet", Batch: 8}); err == nil {
		t.Fatal("-net without -total must error")
	}
	if err := run(runOpts{Net: "nonesuch", Batch: 8, TotalMiB: 64, Device: "p100", Policy: "powerOfTwo"}); err == nil {
		t.Fatal("bogus -net must error")
	}
}
