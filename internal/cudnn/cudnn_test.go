package cudnn

import (
	"math/rand"
	"strings"
	"testing"
	"time"
	"ucudnn/internal/trace"

	"ucudnn/internal/conv"
	"ucudnn/internal/device"
	"ucudnn/internal/tensor"
)

func conv2Descs(t *testing.T, n int) (TensorDesc, FilterDesc, ConvDesc, TensorDesc) {
	t.Helper()
	x, err := NewTensorDesc(n, 64, 27, 27)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewFilterDesc(192, 64, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := NewConvDesc(2, 2, 1, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := GetOutputDim(x, w, cd)
	if err != nil {
		t.Fatal(err)
	}
	return x, w, cd, y
}

func TestDescriptorValidation(t *testing.T) {
	if _, err := NewTensorDesc(0, 1, 1, 1); err == nil {
		t.Fatal("zero batch must fail")
	}
	if _, err := NewFilterDesc(1, 0, 3, 3); err == nil {
		t.Fatal("zero channels must fail")
	}
	if _, err := NewConvDesc(0, 0, 0, 1, 1, 1); err == nil {
		t.Fatal("zero stride must fail")
	}
	if _, err := NewConvDesc(-1, 0, 1, 1, 1, 1); err == nil {
		t.Fatal("negative pad must fail")
	}
}

func TestGetOutputDim(t *testing.T) {
	x, w, cd, y := conv2Descs(t, 256)
	if y != (TensorDesc{256, 192, 27, 27}) {
		t.Fatalf("conv2 out = %v", y)
	}
	_ = x
	_ = w
	_ = cd
	// Channel mismatch must error.
	badW, _ := NewFilterDesc(8, 3, 3, 3)
	if _, err := GetOutputDim(x, badW, cd); err == nil {
		t.Fatal("channel mismatch must error")
	}
}

func TestFindSortedAndConsistent(t *testing.T) {
	h := NewHandle(device.P100, ModelOnlyBackend)
	x, w, cd, y := conv2Descs(t, 64)
	perfs, err := h.FindConvolutionForwardAlgorithm(x, w, cd, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(perfs) < 4 {
		t.Fatalf("expected several algorithms, got %d", len(perfs))
	}
	for i := 1; i < len(perfs); i++ {
		if perfs[i].Time < perfs[i-1].Time {
			t.Fatal("perfs not sorted by time")
		}
	}
	// Memory column must match the workspace query.
	for _, p := range perfs {
		ws, err := h.GetConvolutionForwardWorkspaceSize(x, w, cd, y, p.Algo)
		if err != nil {
			t.Fatal(err)
		}
		if ws != p.Memory {
			t.Fatalf("%v: perf memory %d != workspace %d", p.Algo, p.Memory, ws)
		}
	}
}

// The paper's Fig. 1 mechanism: shrink the limit one byte below the best
// algorithm's workspace and a strictly slower algorithm is selected.
func TestMinusOneByteCliff(t *testing.T) {
	h := NewHandle(device.P100, ModelOnlyBackend)
	x, w, cd, _ := conv2Descs(t, 256)
	cs := Shape(x, w, cd)
	best, err := h.PickAlgo(conv.Forward, cs, PreferFastest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Memory == 0 {
		t.Skip("best algorithm needs no workspace; no cliff")
	}
	limited, err := h.PickAlgo(conv.Forward, cs, SpecifyWorkspaceLimit, best.Memory-1)
	if err != nil {
		t.Fatal(err)
	}
	if limited.Algo == best.Algo {
		t.Fatal("limit best-1 byte must change the algorithm")
	}
	if limited.Time <= best.Time {
		t.Fatalf("fallback %v (%v) should be slower than best %v (%v)",
			limited.Algo, limited.Time, best.Algo, best.Time)
	}
	// The paper reports a 4.51x cliff on conv2; require a substantial one.
	if ratio := float64(limited.Time) / float64(best.Time); ratio < 1.5 {
		t.Fatalf("cliff ratio %.2f too small", ratio)
	}
}

func TestPickAlgoPreferences(t *testing.T) {
	h := NewHandle(device.P100, ModelOnlyBackend)
	x, w, cd, _ := conv2Descs(t, 128)
	cs := Shape(x, w, cd)
	nws, err := h.PickAlgo(conv.Forward, cs, NoWorkspace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nws.Memory != 0 {
		t.Fatalf("NoWorkspace returned memory %d", nws.Memory)
	}
	fastest, _ := h.PickAlgo(conv.Forward, cs, PreferFastest, 0)
	unlimited, _ := h.PickAlgo(conv.Forward, cs, SpecifyWorkspaceLimit, 1<<40)
	if fastest.Algo != unlimited.Algo {
		t.Fatal("huge limit must match PreferFastest")
	}
	if _, err := h.PickAlgo(conv.Forward, cs, Pref(99), 0); err == nil {
		t.Fatal("unknown pref must error")
	}
}

func TestConvolutionForwardExecutesAndCharges(t *testing.T) {
	h := NewHandle(device.P100, ModelBackend)
	x, w, cd, y := conv2Descs(t, 2)
	cs := Shape(x, w, cd)
	rng := rand.New(rand.NewSource(1))
	xt := tensor.NewShaped(cs.In)
	xt.Randomize(rng, 1)
	wt := tensor.NewFilter(192, 64, 5, 5)
	wt.Randomize(rng, 0.1)
	yt := tensor.NewShaped(cs.OutShape())
	algo, err := h.GetConvolutionForwardAlgorithm(x, w, cd, y, SpecifyWorkspaceLimit, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	wsBytes, _ := h.GetConvolutionForwardWorkspaceSize(x, w, cd, y, algo)
	ws := make([]float32, (wsBytes+3)/4)
	if err := h.ConvolutionForward(1, x, xt, w, wt, cd, algo, ws, 0, y, yt); err != nil {
		t.Fatal(err)
	}
	// Arithmetic really happened.
	ref := tensor.NewShaped(cs.OutShape())
	if err := conv.Run(conv.Forward, conv.AlgoDirect, cs, xt, wt, ref, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(yt.Data, ref.Data, 1e-3, 1e-3) {
		t.Fatal("model-backend forward result wrong")
	}
	// The simulated clock was charged with the model time, not wall time.
	mt, _ := device.P100.ModelTime(conv.Forward, algo, cs)
	if h.Elapsed() != mt {
		t.Fatalf("elapsed %v != model %v", h.Elapsed(), mt)
	}
	if h.KernelCalls() != 1 {
		t.Fatalf("kernel calls = %d", h.KernelCalls())
	}
}

func TestBackwardEntryPoints(t *testing.T) {
	h := NewHandle(device.P100, ModelBackend)
	xd, _ := NewTensorDesc(2, 16, 13, 13)
	wd, _ := NewFilterDesc(24, 16, 5, 5)
	cd, _ := NewConvDesc(2, 2, 1, 1, 1, 1)
	yd, err := GetOutputDim(xd, wd, cd)
	if err != nil {
		t.Fatal(err)
	}
	cs := Shape(xd, wd, cd)
	rng := rand.New(rand.NewSource(2))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	w := tensor.NewFilter(24, 16, 5, 5)
	w.Randomize(rng, 0.1)
	dy := tensor.NewShaped(cs.OutShape())
	dy.Randomize(rng, 1)
	dx := tensor.NewShaped(cs.In)
	dw := tensor.NewFilter(24, 16, 5, 5)

	algo, err := h.GetConvolutionBackwardDataAlgorithm(wd, yd, cd, xd, NoWorkspace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ConvolutionBackwardData(1, wd, w, yd, dy, cd, algo, nil, 0, xd, dx); err != nil {
		t.Fatal(err)
	}
	refDx := tensor.NewShaped(cs.In)
	if err := conv.Run(conv.BackwardData, conv.AlgoDirect, cs, refDx, w, dy, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(dx.Data, refDx.Data, 1e-3, 1e-3) {
		t.Fatal("backward data wrong")
	}

	falgo, err := h.GetConvolutionBackwardFilterAlgorithm(xd, yd, cd, wd, SpecifyWorkspaceLimit, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	wsBytes, err := h.GetConvolutionBackwardFilterWorkspaceSize(xd, yd, cd, wd, falgo)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]float32, (wsBytes+3)/4)
	if err := h.ConvolutionBackwardFilter(1, xd, x, yd, dy, cd, falgo, ws, 0, wd, dw); err != nil {
		t.Fatal(err)
	}
	refDw := tensor.NewFilter(24, 16, 5, 5)
	if err := conv.Run(conv.BackwardFilter, conv.AlgoDirect, cs, x, refDw, dy, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(dw.Data, refDw.Data, 1e-2, 1e-2) {
		t.Fatal("backward filter wrong")
	}
}

func TestModelOnlySkipsArithmeticButChecksWorkspace(t *testing.T) {
	h := NewHandle(device.P100, ModelOnlyBackend)
	x, w, cd, y := conv2Descs(t, 32)
	cs := Shape(x, w, cd)
	// No buffers touched: nil tensors are fine in model-only mode.
	if err := h.Convolve(conv.Forward, conv.AlgoImplicitGemm, cs, nil, nil, nil, 1, 0, nil, 0); err != nil {
		t.Fatal(err)
	}
	if h.Elapsed() <= 0 {
		t.Fatal("model-only must charge time")
	}
	// Workspace contracts still enforced.
	if err := h.Convolve(conv.Forward, conv.AlgoGemm, cs, nil, nil, nil, 1, 0, nil, 0); err == nil {
		t.Fatal("model-only must reject missing workspace")
	}
	// The size alone satisfies the floor: model-only reads no buffer.
	need, _ := conv.MinWorkspace(conv.Forward, conv.AlgoGemm, cs)
	if err := h.Convolve(conv.Forward, conv.AlgoGemm, cs, nil, nil, nil, 1, 0, nil, need); err != nil {
		t.Fatalf("model-only with a %d-byte grant and no buffer: %v", need, err)
	}
	if err := h.Convolve(conv.Forward, conv.AlgoGemm, cs, nil, nil, nil, 1, 0, nil, need-1); err == nil {
		t.Fatal("model-only must reject a grant one byte under the floor")
	}
	_ = y
}

// An untraced model-only Convolve allocates nothing: the span label is
// formatted only for an attached recorder.
func TestConvolveUntracedAllocs(t *testing.T) {
	h := NewHandle(device.P100, ModelOnlyBackend)
	for _, c := range []int{3, 384} {
		cs := tensor.ConvShape{
			In:     tensor.Shape{N: 16, C: c, H: 13, W: 13},
			Filt:   tensor.Filter{K: 256, C: c, R: 3, S: 3},
			Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
		}
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			err = h.Convolve(conv.Forward, conv.AlgoImplicitGemm, cs, nil, nil, nil, 1, 0, nil, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("C=%d: %v allocs per untraced Convolve, want 0", c, allocs)
		}
	}
}

func TestRealBackendChargesWallTime(t *testing.T) {
	h := NewHandle(device.P100, RealBackend)
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 2, C: 4, H: 8, W: 8},
		Filt:   tensor.Filter{K: 4, C: 4, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	x := tensor.NewShaped(cs.In)
	w := tensor.NewFilter(4, 4, 3, 3)
	y := tensor.NewShaped(cs.OutShape())
	if err := h.Convolve(conv.Forward, conv.AlgoDirect, cs, x, w, y, 1, 0, nil, 0); err != nil {
		t.Fatal(err)
	}
	if h.Elapsed() <= 0 {
		t.Fatal("real backend must charge positive wall time")
	}
	perfs := h.AlgoPerfs(conv.Forward, cs)
	if len(perfs) == 0 {
		t.Fatal("real backend Find returned nothing")
	}
	for _, p := range perfs {
		if p.Time < 0 {
			t.Fatal("negative measured time")
		}
	}
}

func TestChargeAccumulates(t *testing.T) {
	h := NewHandle(device.K80, ModelOnlyBackend)
	h.Charge(3 * time.Millisecond)
	h.Charge(2 * time.Millisecond)
	if h.Elapsed() != 5*time.Millisecond || h.KernelCalls() != 2 {
		t.Fatalf("elapsed=%v calls=%d", h.Elapsed(), h.KernelCalls())
	}
}

func TestBackendString(t *testing.T) {
	if ModelBackend.String() != "model" || RealBackend.String() != "real" || ModelOnlyBackend.String() != "model-only" {
		t.Fatal("backend names")
	}
	if Backend(42).String() == "" {
		t.Fatal("unknown backend string empty")
	}
}

func TestHandleAccessors(t *testing.T) {
	h := NewHandle(device.V100, ModelBackend)
	if h.Device().Name != device.V100.Name {
		t.Fatal("device accessor")
	}
	if h.Backend() != ModelBackend {
		t.Fatal("backend accessor")
	}
	if h.Mem() == nil || h.Mem().Cap != device.V100.MemBytes {
		t.Fatal("mem accessor")
	}
}

func TestBackwardFindFunctions(t *testing.T) {
	h := NewHandle(device.P100, ModelOnlyBackend)
	xd, _ := NewTensorDesc(8, 8, 10, 10)
	wd, _ := NewFilterDesc(12, 8, 3, 3)
	cd, _ := NewConvDesc(1, 1, 1, 1, 1, 1)
	yd, err := GetOutputDim(xd, wd, cd)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := h.FindConvolutionBackwardDataAlgorithm(wd, yd, cd, xd)
	if err != nil || len(bd) == 0 {
		t.Fatalf("bwd-data find: %v, %v", bd, err)
	}
	bf, err := h.FindConvolutionBackwardFilterAlgorithm(xd, yd, cd, wd)
	if err != nil || len(bf) == 0 {
		t.Fatalf("bwd-filter find: %v, %v", bf, err)
	}
	for i := 1; i < len(bd); i++ {
		if bd[i].Time < bd[i-1].Time {
			t.Fatal("bwd-data perfs unsorted")
		}
	}
	// Workspace query consistency for the backward-data rows.
	for _, p := range bd {
		ws, err := h.GetConvolutionBackwardDataWorkspaceSize(wd, yd, cd, xd, p.Algo)
		if err != nil || ws != p.Memory {
			t.Fatalf("bwd-data ws mismatch: %d vs %d (%v)", ws, p.Memory, err)
		}
	}
	// Mismatched descriptors must error on every entry point.
	badY, _ := NewTensorDesc(8, 12, 3, 3)
	if _, err := h.FindConvolutionBackwardDataAlgorithm(wd, badY, cd, xd); err == nil {
		t.Fatal("bad dy must error")
	}
	if _, err := h.FindConvolutionBackwardFilterAlgorithm(xd, badY, cd, wd); err == nil {
		t.Fatal("bad dy must error")
	}
	if _, err := h.GetConvolutionForwardWorkspaceSize(xd, wd, cd, badY, 0); err == nil {
		t.Fatal("bad y must error")
	}
}

// A traced µ-cuDNN-style sequence of kernel charges must appear on the
// recorder with back-to-back spans on the simulated clock.
func TestTraceIntegration(t *testing.T) {
	h := NewHandle(device.P100, ModelOnlyBackend)
	rec := trace.New()
	h.SetTrace(rec)
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 8, C: 4, H: 9, W: 9},
		Filt:   tensor.Filter{K: 4, C: 4, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	// Two micro-batches, as µ-cuDNN would issue them.
	for i := 0; i < 2; i++ {
		if err := h.Convolve(conv.Forward, conv.AlgoImplicitGemm, cs.WithN(4), nil, nil, nil, 1, 0, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	h.Charge(time.Millisecond)
	h.SetTrace(nil)
	if err := h.Convolve(conv.Forward, conv.AlgoImplicitGemm, cs.WithN(4), nil, nil, nil, 1, 0, nil, 0); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3 (detach must stop recording)", len(evs))
	}
	if evs[0].Start != 0 || evs[1].Start != evs[0].Dur {
		t.Fatalf("spans not back-to-back: %v", evs)
	}
	if evs[0].Cat != "conv" || evs[2].Cat != "other" {
		t.Fatalf("categories wrong: %v", evs)
	}
	if !strings.Contains(evs[0].Name, "IMPLICIT_GEMM@4") {
		t.Fatalf("conv span unlabeled: %q", evs[0].Name)
	}
}
