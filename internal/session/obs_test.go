package session

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ucudnn/internal/blas"
	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

// runKernel executes one small real GEMM convolution, enough for the
// profiler to record SGEMM phase windows.
func runKernel(t *testing.T) {
	t.Helper()
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 2, C: 4, H: 8, W: 8},
		Filt:   tensor.Filter{K: 4, C: 4, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	ws, _ := conv.Workspace(conv.Forward, conv.AlgoGemm, cs)
	x, w, y := tensor.NewShaped(cs.In), tensor.NewFilter(4, 4, 3, 3), tensor.NewShaped(cs.OutShape())
	if err := conv.Run(conv.Forward, conv.AlgoGemm, cs, x, w, y, 1, 0, make([]float32, ws/4)); err != nil {
		t.Fatal(err)
	}
}

// phaseObservations is the SGEMM micro-kernel phase histogram's count
// in reg.
func phaseObservations(reg *obs.Registry) int64 {
	return reg.Histogram(prof.MetricPhaseSeconds, obs.DurationBuckets,
		obs.L("phase", string(blas.PhSgemmKernel))).Count()
}

func TestObsFlagsRunLifecycle(t *testing.T) {
	// No flags: no registry, no profiler, nothing armed.
	if err := (ObsFlags{}).Run(func(reg *obs.Registry) ([]core.HandleReport, error) {
		if reg != nil || prof.Enabled() || faults.Active() != nil {
			t.Error("empty flag block attached something")
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	f := ObsFlags{
		Metrics: filepath.Join(dir, "m.prom"),
		Profile: filepath.Join(dir, "p.json"),
		Faults:  "ucudnn_fp_convolve=nth:1",
	}
	var runReg *obs.Registry
	if err := f.Run(func(reg *obs.Registry) ([]core.HandleReport, error) {
		if reg == nil || !prof.Enabled() || faults.Active() == nil {
			t.Error("flags did not attach registry, profiler and fault schedule")
		}
		reg.Counter("ucudnn_session_test_total").Inc()
		runKernel(t)
		runReg = reg
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if prof.Enabled() || faults.Active() != nil {
		t.Fatal("Run left the profiler or the fault schedule attached")
	}
	// Run detached the profiler from its registry too: a later profiled
	// kernel must not observe into the finished run's series.
	before := phaseObservations(runReg)
	if before == 0 {
		t.Fatal("the run's kernel observed no phase histograms")
	}
	prof.Enable()
	runKernel(t)
	prof.Disable()
	prof.Reset()
	if after := phaseObservations(runReg); after != before {
		t.Fatalf("a kernel profiled after Run returned moved the run's %s counts %d -> %d",
			prof.MetricPhaseSeconds, before, after)
	}
	data, err := os.ReadFile(f.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ucudnn_session_test_total 1") {
		t.Fatalf("metrics file lacks the body's series:\n%s", data)
	}
	if _, err := os.Stat(f.Profile); err != nil {
		t.Fatal(err)
	}

	// A failing body detaches everything and writes no files.
	f.Metrics, f.Profile = filepath.Join(dir, "m2.prom"), filepath.Join(dir, "p2.json")
	boom := errors.New("boom")
	if err := f.Run(func(*obs.Registry) ([]core.HandleReport, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the body's", err)
	}
	if prof.Enabled() || faults.Active() != nil {
		t.Fatal("failed Run left the profiler or the fault schedule attached")
	}
	if _, err := os.Stat(f.Metrics); err == nil {
		t.Fatal("failed Run wrote a metrics file")
	}
}
