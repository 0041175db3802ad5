package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

// profiledForward drives one real GEMM forward kernel with profiling on
// and the layer name set, so the report has a joined row to assert on.
func profiledForward(t *testing.T) *Handle {
	t.Helper()
	// Serial engine path: the coverage assertion below measures how much
	// of the kernel's time the phase windows attribute. Per-worker busy
	// windows on an oversubscribed host (the pinned 4 workers of
	// TestMain on a small CI box) include scheduler slack no phase can
	// claim, which would turn the assertion into a flake.
	prev := conv.SetMaxWorkers(1)
	prof.Reset()
	prof.Enable()
	t.Cleanup(func() {
		conv.SetMaxWorkers(prev)
		prof.Disable()
		prof.SetLayer("")
		prof.Reset()
	})
	h := newTestHandle(t, cudnn.ModelBackend, WithWorkspaceLimit(1<<20),
		WithAlgoFilter(func(op conv.Op, a conv.Algo) bool { return a == conv.AlgoGemm }))
	// Bigger than smallConv so per-sample compute dominates the fixed
	// per-exec dispatch (plan join, validation) that no phase window can
	// claim — the coverage assertion is about attribution quality of the
	// kernel itself, not dispatch amortization.
	xd, _ := cudnn.NewTensorDesc(10, 16, 24, 24)
	wd, _ := cudnn.NewFilterDesc(12, 16, 3, 3)
	cd, _ := cudnn.NewConvDesc(1, 1, 1, 1, 1, 1)
	yd, _ := cudnn.GetOutputDim(xd, wd, cd)
	cs := cudnn.Shape(xd, wd, cd)
	rng := rand.New(rand.NewSource(7))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	w := tensor.NewFilter(12, 16, 3, 3)
	w.Randomize(rng, 0.5)
	y := tensor.NewShaped(cs.OutShape())
	algo, _ := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.SpecifyWorkspaceLimit, 1<<20)
	prof.SetLayer("conv_prof")
	if err := h.ConvolutionForward(1, xd, x, wd, w, cd, algo, nil, 0, yd, y); err != nil {
		t.Fatal(err)
	}
	prof.SetLayer("")
	return h
}

func TestBuildProfileReportJoinsPlans(t *testing.T) {
	h := profiledForward(t)
	rep := BuildProfileReport([]HandleReport{h.Report()})
	if rep.Schema != ProfileSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	var row *ProfileKernel
	for i := range rep.Kernels {
		if rep.Kernels[i].Layer == "conv_prof" {
			row = &rep.Kernels[i]
		}
	}
	if row == nil {
		t.Fatalf("no conv_prof row in %d kernels", len(rep.Kernels))
	}
	if !strings.HasPrefix(row.Kernel, "Forward") {
		t.Fatalf("kernel = %q", row.Kernel)
	}
	// The join must have matched the handle's plan table.
	if row.Config == "" || row.Divisions < 1 || row.WorkspaceBytes <= 0 {
		t.Fatalf("plan join missing: %+v", row)
	}
	if p, ok := findPlan(rep.Handles, row.Kernel); !ok || p.Config != row.Config {
		t.Fatalf("findPlan disagrees with joined row: %+v vs %+v", p, row)
	}
	if row.Executions < 1 || row.TotalNS <= 0 || row.MeasuredNS <= 0 {
		t.Fatalf("execution accounting: %+v", row)
	}
	if row.WSHighWaterBytes <= 0 || row.WSHighWaterBytes > h.Report().ArenaBytes {
		t.Fatalf("ws high-watermark %d vs arena %d", row.WSHighWaterBytes, h.Report().ArenaBytes)
	}
	if len(row.Phases) == 0 || row.AttributedNS <= 0 {
		t.Fatalf("no phase attribution: %+v", row)
	}
	if row.Coverage < 0.9 && !prof.RaceEnabled {
		t.Fatalf("coverage = %v, want >= 0.9 on a pure-GEMM kernel", row.Coverage)
	}
	if len(rep.TopPhases) == 0 {
		t.Fatal("no aggregate top phases")
	}
}

// The plan join must cover every handle the run built, not the last few:
// each of several handles executes one distinct kernel, and every kernel
// row of the report carries its plan.
func TestBuildProfileReportJoinsEveryHandle(t *testing.T) {
	prof.Reset()
	prof.Enable()
	t.Cleanup(func() {
		prof.Disable()
		prof.Reset()
	})
	const n = 6
	var handles []HandleReport
	for i := 0; i < n; i++ {
		h := newTestHandle(t, cudnn.ModelOnlyBackend, WithWorkspaceLimit(1<<20),
			WithAlgoFilter(func(op conv.Op, a conv.Algo) bool { return a == conv.AlgoGemm }))
		xd, wd, cd, yd, _ := smallConv(4 + i)
		algo, _ := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.SpecifyWorkspaceLimit, 1<<20)
		if err := h.ConvolutionForward(1, xd, nil, wd, nil, cd, algo, nil, 0, yd, nil); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h.Report())
	}
	rep := BuildProfileReport(handles)
	if len(rep.Handles) != n {
		t.Fatalf("report lists %d handles, want %d", len(rep.Handles), n)
	}
	for i := 1; i < n; i++ {
		if rep.Handles[i].ID <= rep.Handles[i-1].ID {
			t.Fatalf("handle ids not ascending: %d then %d", rep.Handles[i-1].ID, rep.Handles[i].ID)
		}
	}
	if len(rep.Kernels) != n {
		t.Fatalf("report has %d kernel rows, want one per handle (%d)", len(rep.Kernels), n)
	}
	for _, k := range rep.Kernels {
		if k.Config == "" || k.Divisions < 1 || k.WorkspaceBytes <= 0 {
			t.Errorf("%s: plan join missing: %+v", k.Kernel, k)
		}
	}
}

func TestWriteTableAndProfileFile(t *testing.T) {
	handles := []HandleReport{profiledForward(t).Report()}
	rep := BuildProfileReport(handles)
	var sb strings.Builder
	if err := rep.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"layer", "conv_prof", "top phases:", "ucudnn_ph_sgemm_kernel"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}

	path := filepath.Join(t.TempDir(), "prof.json")
	if err := WriteProfileFile(path, handles); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProfile(data); err != nil {
		t.Fatalf("written profile fails its own validator: %v", err)
	}
	// "" is a no-op, and a bad path reports the error.
	if err := WriteProfileFile("", nil); err != nil {
		t.Fatalf("empty path: %v", err)
	}
	if err := WriteProfileFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x.json"), nil); err == nil {
		t.Fatal("unwritable path did not error")
	}
}

func TestValidateProfileRejects(t *testing.T) {
	base := func() ProfileReport {
		return ProfileReport{
			Schema:  ProfileSchema,
			Handles: []HandleReport{},
			Kernels: []ProfileKernel{{RowSnap: prof.RowSnap{
				Kernel:       "Forward[x]",
				AttributedNS: 10,
				MeasuredNS:   10,
				Coverage:     1,
				Phases:       []prof.PhaseSnap{{Phase: "ucudnn_ph_gemm_sgemm", NS: 10, Count: 1}},
			}}},
			TopPhases: []prof.PhaseSnap{{Phase: "ucudnn_ph_gemm_sgemm", NS: 10, Count: 1}},
		}
	}
	enc := func(r ProfileReport) []byte {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if err := ValidateProfile(enc(base())); err != nil {
		t.Fatalf("base report invalid: %v", err)
	}
	for name, mutate := range map[string]func(*ProfileReport){
		"schema":            func(r *ProfileReport) { r.Schema = "bogus/v9" },
		"empty kernel":      func(r *ProfileReport) { r.Kernels[0].Kernel = "" },
		"negative time":     func(r *ProfileReport) { r.Kernels[0].TotalNS = -1 },
		"bad phase name":    func(r *ProfileReport) { r.Kernels[0].Phases[0].Phase = "sgemm" },
		"phase sum":         func(r *ProfileReport) { r.Kernels[0].AttributedNS = 99 },
		"negative phase":    func(r *ProfileReport) { r.Kernels[0].Phases[0].NS = -5; r.Kernels[0].AttributedNS = -5 },
		"bad coverage":      func(r *ProfileReport) { r.Kernels[0].Coverage = -1 },
		"neg workers":       func(r *ProfileReport) { r.Kernels[0].Workers.BusyNS = -1 },
		"bad top phase":     func(r *ProfileReport) { r.TopPhases[0].Phase = "nope" },
		"top phase ns":      func(r *ProfileReport) { r.TopPhases[0].NS = 11 },
		"top phase count":   func(r *ProfileReport) { r.TopPhases[0].Count = 2 },
		"top phase missing": func(r *ProfileReport) { r.TopPhases = nil },
		"top phase extra": func(r *ProfileReport) {
			r.TopPhases = append(r.TopPhases, prof.PhaseSnap{Phase: "ucudnn_ph_gemm_im2col", NS: 1, Count: 1})
		},
	} {
		r := base()
		mutate(&r)
		if err := ValidateProfile(enc(r)); err == nil {
			t.Errorf("%s: mutated report passed validation", name)
		}
	}
	if err := ValidateProfile([]byte("{")); err == nil {
		t.Error("truncated JSON passed validation")
	}
	if err := ValidateProfile([]byte(`{"schema":"ucudnn-profile-report/v1"}`)); err == nil {
		t.Error("missing arrays passed validation")
	}
}
