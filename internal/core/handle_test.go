package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/tensor"
	"ucudnn/internal/trace"
)

// smallConv is a shape small enough for real arithmetic in tests but large
// enough that micro-batching decisions are nontrivial.
func smallConv(n int) (cudnn.TensorDesc, cudnn.FilterDesc, cudnn.ConvDesc, cudnn.TensorDesc, tensor.ConvShape) {
	xd, _ := cudnn.NewTensorDesc(n, 8, 12, 12)
	wd, _ := cudnn.NewFilterDesc(12, 8, 3, 3)
	cd, _ := cudnn.NewConvDesc(1, 1, 1, 1, 1, 1)
	yd, _ := cudnn.GetOutputDim(xd, wd, cd)
	return xd, wd, cd, yd, cudnn.Shape(xd, wd, cd)
}

func newTestHandle(t *testing.T, backend cudnn.Backend, opts ...Option) *Handle {
	t.Helper()
	h, err := New(cudnn.NewHandle(device.P100, backend), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHandleReturnsVirtualAlgoAndZeroWorkspace(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelOnlyBackend)
	xd, wd, cd, yd, _ := smallConv(16)
	algo, err := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.SpecifyWorkspaceLimit, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if algo != VirtualAlgo {
		t.Fatalf("algo = %v, want virtual", algo)
	}
	ws, err := h.GetConvolutionForwardWorkspaceSize(xd, wd, cd, yd, algo)
	if err != nil || ws != 0 {
		t.Fatalf("virtual workspace = %d, %v", ws, err)
	}
	// Real algorithms still delegate.
	ws2, err := h.GetConvolutionForwardWorkspaceSize(xd, wd, cd, yd, conv.AlgoGemm)
	if err != nil || ws2 == 0 {
		t.Fatalf("delegated workspace = %d, %v", ws2, err)
	}
	perfs, err := h.FindConvolutionForwardAlgorithm(xd, wd, cd, yd)
	if err != nil || len(perfs) != 1 || perfs[0].Algo != VirtualAlgo || perfs[0].Memory != 0 {
		t.Fatalf("find = %v, %v", perfs, err)
	}
}

// End-to-end numeric correctness: the micro-batched plan produces the same
// forward results as an undivided direct convolution.
func TestHandleForwardCorrect(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelBackend, WithPolicy(PolicyPowerOfTwo), WithWorkspaceLimit(1<<20))
	xd, wd, cd, yd, cs := smallConv(10)
	rng := rand.New(rand.NewSource(3))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	w := tensor.NewFilter(12, 8, 3, 3)
	w.Randomize(rng, 0.5)
	y := tensor.NewShaped(cs.OutShape())
	algo, _ := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.SpecifyWorkspaceLimit, 1<<20)
	if err := h.ConvolutionForward(1, xd, x, wd, w, cd, algo, nil, 0, yd, y); err != nil {
		t.Fatal(err)
	}
	ref := tensor.NewShaped(cs.OutShape())
	if err := conv.Run(conv.Forward, conv.AlgoDirect, cs, x, w, ref, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(y.Data, ref.Data, 1e-3, 1e-3) {
		t.Fatalf("micro-batched forward wrong: maxdiff %g", tensor.MaxAbsDiff(y.Data, ref.Data))
	}
	// The plan is cached: a second call does not re-optimize.
	opt1 := h.OptimizationTime()
	if opt1 <= 0 {
		t.Fatal("optimization time not recorded")
	}
	if err := h.ConvolutionForward(1, xd, x, wd, w, cd, algo, nil, 0, yd, y); err != nil {
		t.Fatal(err)
	}
	if h.OptimizationTime() != opt1 {
		t.Fatal("second call re-optimized")
	}
	if len(h.Plans()) != 1 {
		t.Fatalf("plans = %d", len(h.Plans()))
	}
}

// Micro-batched BackwardFilter accumulation equals the undivided gradient,
// including a nonzero user beta.
func TestHandleBackwardFilterAccumulation(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelBackend, WithWorkspaceLimit(1<<20))
	xd, wd, cd, yd, cs := smallConv(9)
	rng := rand.New(rand.NewSource(4))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	dy := tensor.NewShaped(cs.OutShape())
	dy.Randomize(rng, 1)
	dw := tensor.NewFilter(12, 8, 3, 3)
	dw.Randomize(rng, 1)
	ref := dw.Clone()
	algo, _ := h.GetConvolutionBackwardFilterAlgorithm(xd, yd, cd, wd, cudnn.SpecifyWorkspaceLimit, 1<<20)
	if err := h.ConvolutionBackwardFilter(0.5, xd, x, yd, dy, cd, algo, nil, 0.25, wd, dw); err != nil {
		t.Fatal(err)
	}
	if err := conv.Run(conv.BackwardFilter, conv.AlgoDirect, cs, x, ref, dy, 0.5, 0.25, nil); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(dw.Data, ref.Data, 1e-3, 1e-3) {
		t.Fatalf("micro-batched dW wrong: maxdiff %g", tensor.MaxAbsDiff(dw.Data, ref.Data))
	}
}

func TestHandleBackwardDataCorrect(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelBackend, WithWorkspaceLimit(1<<20))
	xd, wd, cd, yd, cs := smallConv(6)
	rng := rand.New(rand.NewSource(5))
	w := tensor.NewFilter(12, 8, 3, 3)
	w.Randomize(rng, 0.5)
	dy := tensor.NewShaped(cs.OutShape())
	dy.Randomize(rng, 1)
	dx := tensor.NewShaped(cs.In)
	algo, _ := h.GetConvolutionBackwardDataAlgorithm(wd, yd, cd, xd, cudnn.SpecifyWorkspaceLimit, 1<<20)
	if err := h.ConvolutionBackwardData(1, wd, w, yd, dy, cd, algo, nil, 0, xd, dx); err != nil {
		t.Fatal(err)
	}
	ref := tensor.NewShaped(cs.In)
	if err := conv.Run(conv.BackwardData, conv.AlgoDirect, cs, ref, w, dy, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(dx.Data, ref.Data, 1e-3, 1e-3) {
		t.Fatalf("micro-batched dX wrong: maxdiff %g", tensor.MaxAbsDiff(dx.Data, ref.Data))
	}
}

// Bypass: calling with a concrete algorithm skips µ-cuDNN and delegates.
func TestHandleDelegatesRealAlgo(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelBackend)
	xd, wd, cd, yd, cs := smallConv(4)
	x := tensor.NewShaped(cs.In)
	w := tensor.NewFilter(12, 8, 3, 3)
	y := tensor.NewShaped(cs.OutShape())
	if err := h.ConvolutionForward(1, xd, x, wd, w, cd, conv.AlgoDirect, nil, 0, yd, y); err != nil {
		t.Fatal(err)
	}
	if len(h.Plans()) != 0 {
		t.Fatal("delegated call must not create a plan")
	}
}

// Plans comes back sorted by kernel whatever order the kernels were
// registered in: callers print it, and a map-ordered snapshot made two
// runs of one program print their plans differently.
func TestHandlePlansSorted(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelOnlyBackend, WithWD(32<<20), WithPolicy(PolicyPowerOfTwo))
	for n := 9; n >= 2; n-- { // reverse order of the kernel strings
		xd, wd, cd, yd, _ := smallConv(n)
		if _, err := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.PreferFastest, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.FinalizeRegistration(); err != nil {
		t.Fatal(err)
	}
	plans := h.Plans()
	if len(plans) != 8 {
		t.Fatalf("%d plans, want 8", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if a, b := plans[i-1].Kernel.String(), plans[i].Kernel.String(); a >= b {
			t.Fatalf("plans out of order: %s before %s", a, b)
		}
	}
}

func TestHandleWDMode(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelOnlyBackend,
		WithWD(32<<20), WithPolicy(PolicyPowerOfTwo))
	// Register three kernels of a small "network" through Get calls.
	xd, wd, cd, yd, cs := smallConv(32)
	if _, err := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.PreferFastest, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.GetConvolutionBackwardDataAlgorithm(wd, yd, cd, xd, cudnn.PreferFastest, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.GetConvolutionBackwardFilterAlgorithm(xd, yd, cd, wd, cudnn.PreferFastest, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.FinalizeRegistration(); err != nil {
		t.Fatal(err)
	}
	res := h.WDStats()
	if res == nil {
		t.Fatal("WD did not run")
	}
	if res.TotalWorkspace > 32<<20 {
		t.Fatalf("WD workspace %d over budget", res.TotalWorkspace)
	}
	if len(res.Plans) != 3 {
		t.Fatalf("WD planned %d kernels", len(res.Plans))
	}
	// Registration is closed: new Get calls don't grow the kernel list.
	xd2, wd2, cd2, yd2, _ := smallConv(64)
	if _, err := h.GetConvolutionForwardAlgorithm(xd2, wd2, cd2, yd2, cudnn.PreferFastest, 0); err != nil {
		t.Fatal(err)
	}
	if got := h.WDStats(); len(got.Plans) != 3 {
		t.Fatal("post-finalize registration must be ignored")
	}
	// Executing a planned kernel works in model-only mode (nil buffers).
	if err := h.ConvolutionForward(1, xd, nil, wd, nil, cd, VirtualAlgo, nil, 0, yd, nil); err != nil {
		t.Fatal(err)
	}
	// An unregistered kernel falls back to WR.
	if err := h.ConvolutionForward(1, xd2, nil, wd2, nil, cd2, VirtualAlgo, nil, 0, yd2, nil); err != nil {
		t.Fatal(err)
	}
	_ = cs
}

func TestHandleWDSharedSegments(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelOnlyBackend, WithWD(32<<20))
	xd, wd, cd, yd, _ := smallConv(32)
	// Same forward kernel registered twice (replicated layer).
	h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.PreferFastest, 0)
	h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.PreferFastest, 0)
	if err := h.FinalizeRegistration(); err != nil {
		t.Fatal(err)
	}
	res := h.WDStats()
	used := h.Inner().Mem().Used()
	if used != res.TotalWorkspace {
		t.Fatalf("allocated %d != WD total %d (segments must be shared)", used, res.TotalWorkspace)
	}
}

func TestHandleWDRequiresBudget(t *testing.T) {
	if _, err := New(cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend), WithWD(0)); err == nil {
		t.Fatal("WD without budget must error")
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv("UCUDNN_BATCH_SIZE_POLICY", "all")
	t.Setenv("UCUDNN_WORKSPACE_LIMIT", "1048576")
	t.Setenv("UCUDNN_TOTAL_WORKSPACE_SIZE", "8388608")
	h := newTestHandle(t, cudnn.ModelOnlyBackend, FromEnv())
	o := h.Options()
	if o.Policy != PolicyAll || o.WorkspaceLimit != 1<<20 || o.Mode != WD ||
		o.TotalWorkspaceLimit != 8<<20 {
		t.Fatalf("env options wrong: %+v", o)
	}
	if WR.String() != "WR" || WD.String() != "WD" {
		t.Fatal("mode strings")
	}
}

func TestFromEnvIgnoresBadValues(t *testing.T) {
	t.Setenv("UCUDNN_BATCH_SIZE_POLICY", "nope")
	t.Setenv("UCUDNN_WORKSPACE_LIMIT", "xyz")
	t.Setenv("UCUDNN_TOTAL_WORKSPACE_SIZE", "")
	h := newTestHandle(t, cudnn.ModelOnlyBackend, FromEnv())
	o := h.Options()
	if o.Policy != PolicyPowerOfTwo || o.WorkspaceLimit != DefaultWorkspaceLimit || o.Mode != WR {
		t.Fatalf("bad env values must keep defaults: %+v", o)
	}
}

// WD mode with real arithmetic: registered kernels execute their ILP-
// chosen micro-batched configurations and the numbers match the direct
// reference.
func TestHandleWDRealCompute(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelBackend, WithWD(2<<20), WithPolicy(core_TestPolicy()))
	xd, wd, cd, yd, cs := smallConv(12)
	if _, err := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.PreferFastest, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.GetConvolutionBackwardFilterAlgorithm(xd, yd, cd, wd, cudnn.PreferFastest, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.FinalizeRegistration(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	w.Randomize(rng, 0.5)
	y := tensor.NewShaped(cs.OutShape())
	if err := h.ConvolutionForward(1, xd, x, wd, w, cd, VirtualAlgo, nil, 0, yd, y); err != nil {
		t.Fatal(err)
	}
	ref := tensor.NewShaped(cs.OutShape())
	if err := conv.Run(conv.Forward, conv.AlgoDirect, cs, x, w, ref, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(y.Data, ref.Data, 1e-3, 1e-3) {
		t.Fatalf("WD forward wrong: %g", tensor.MaxAbsDiff(y.Data, ref.Data))
	}
	// Backward filter through the WD plan, with accumulation.
	dy := tensor.NewShaped(cs.OutShape())
	dy.Randomize(rng, 1)
	dw := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	if err := h.ConvolutionBackwardFilter(1, xd, x, yd, dy, cd, VirtualAlgo, nil, 0, wd, dw); err != nil {
		t.Fatal(err)
	}
	refDw := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	if err := conv.Run(conv.BackwardFilter, conv.AlgoDirect, cs, x, refDw, dy, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(dw.Data, refDw.Data, 1e-3, 1e-3) {
		t.Fatalf("WD dW wrong: %g", tensor.MaxAbsDiff(dw.Data, refDw.Data))
	}
}

// core_TestPolicy lets the WD real-compute test pick a dividing policy.
func core_TestPolicy() Policy { return PolicyPowerOfTwo }

// TestExecuteKernelSpans drives a real plan with a recorder attached and
// checks the execution path's span stream: one track-0 kernel span per
// Config entry, in Config order (so in ascending sample offset), laid
// end to end over exactly the simulated time the call consumed.
func TestExecuteKernelSpans(t *testing.T) {
	// Pin the universe to GEMM under a limit that fits two samples'
	// lowering strips but not seven, so the plan must divide.
	h := newTestHandle(t, cudnn.ModelBackend, WithWorkspaceLimit(128<<10),
		WithAlgoFilter(func(op conv.Op, a conv.Algo) bool { return a == conv.AlgoGemm }))
	xd, wd, cd, yd, cs := smallConv(7)
	rng := rand.New(rand.NewSource(6))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	w := tensor.NewFilter(12, 8, 3, 3)
	w.Randomize(rng, 0.5)
	y := tensor.NewShaped(cs.OutShape())
	algo, _ := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.SpecifyWorkspaceLimit, 128<<10)
	rec := trace.New()
	h.Inner().SetTrace(rec)
	simStart := h.Inner().Elapsed()
	if err := h.ConvolutionForward(1, xd, x, wd, w, cd, algo, nil, 0, yd, y); err != nil {
		t.Fatal(err)
	}
	plans := h.Plans()
	if len(plans) != 1 || len(plans[0].Config) < 2 {
		t.Fatalf("plans = %v, want one divided plan", plans)
	}
	cfg := plans[0].Config
	evs := rec.Events()
	if len(evs) != len(cfg) {
		t.Fatalf("%d kernel spans for %d micro-batches: %+v", len(evs), len(cfg), evs)
	}
	at, covered := simStart, 0
	for i, e := range evs {
		want := fmt.Sprintf("Forward %v ", cfg[i])
		if e.Track != trace.TrackKernel || !strings.HasPrefix(e.Name, want) {
			t.Fatalf("span %d = %q on track %d, want a kernel span %q…", i, e.Name, e.Track, want)
		}
		if e.Start != at || e.Dur <= 0 {
			t.Fatalf("span %d covers [%v,+%v), want it to start at %v", i, e.Start, e.Dur, at)
		}
		at += e.Dur
		covered += cfg[i].BatchSize
	}
	if at != h.Inner().Elapsed() {
		t.Fatalf("kernel spans end at %v, the call at %v", at, h.Inner().Elapsed())
	}
	if covered != cs.In.N {
		t.Fatalf("micro-batches cover %d samples, want %d", covered, cs.In.N)
	}
}

// cuDNN rejects a descriptor set whose output descriptor is not the
// convolution's output, and µ-cuDNN must reject it too, at every one of
// the twelve entry points and before it registers or plans anything:
// otherwise Get*/Find* record a kernel the framework never runs, and the
// virtual Convolution* executes a plan for the wrong output.
func TestEntryPointsRejectMismatchedDescriptors(t *testing.T) {
	xd, _ := cudnn.NewTensorDesc(4, 8, 13, 13)
	wd, _ := cudnn.NewFilterDesc(16, 8, 3, 3)
	cd, _ := cudnn.NewConvDesc(1, 1, 1, 1, 1, 1)
	yd, _ := cudnn.NewTensorDesc(4, 16, 7, 7) // cuDNN's output is 4x16x13x13
	x := tensor.New(4, 8, 13, 13)
	w := tensor.NewFilter(16, 8, 3, 3)
	y := tensor.New(4, 16, 7, 7)
	if _, err := cudnn.NewHandle(device.P100, cudnn.ModelBackend).GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.PreferFastest, 0); err == nil {
		t.Fatal("cuDNN accepted the mismatched output descriptor")
	}
	const lim = 8 << 20
	entries := map[string]func(h *Handle) error{
		"GetConvolutionForwardAlgorithm": func(h *Handle) error {
			_, err := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.SpecifyWorkspaceLimit, lim)
			return err
		},
		"GetConvolutionBackwardDataAlgorithm": func(h *Handle) error {
			_, err := h.GetConvolutionBackwardDataAlgorithm(wd, yd, cd, xd, cudnn.SpecifyWorkspaceLimit, lim)
			return err
		},
		"GetConvolutionBackwardFilterAlgorithm": func(h *Handle) error {
			_, err := h.GetConvolutionBackwardFilterAlgorithm(xd, yd, cd, wd, cudnn.SpecifyWorkspaceLimit, lim)
			return err
		},
		"FindConvolutionForwardAlgorithm": func(h *Handle) error {
			_, err := h.FindConvolutionForwardAlgorithm(xd, wd, cd, yd)
			return err
		},
		"FindConvolutionBackwardDataAlgorithm": func(h *Handle) error {
			_, err := h.FindConvolutionBackwardDataAlgorithm(wd, yd, cd, xd)
			return err
		},
		"FindConvolutionBackwardFilterAlgorithm": func(h *Handle) error {
			_, err := h.FindConvolutionBackwardFilterAlgorithm(xd, yd, cd, wd)
			return err
		},
		"GetConvolutionForwardWorkspaceSize": func(h *Handle) error {
			_, err := h.GetConvolutionForwardWorkspaceSize(xd, wd, cd, yd, VirtualAlgo)
			return err
		},
		"GetConvolutionBackwardDataWorkspaceSize": func(h *Handle) error {
			_, err := h.GetConvolutionBackwardDataWorkspaceSize(wd, yd, cd, xd, VirtualAlgo)
			return err
		},
		"GetConvolutionBackwardFilterWorkspaceSize": func(h *Handle) error {
			_, err := h.GetConvolutionBackwardFilterWorkspaceSize(xd, yd, cd, wd, VirtualAlgo)
			return err
		},
		"ConvolutionForward": func(h *Handle) error {
			return h.ConvolutionForward(1, xd, x, wd, w, cd, VirtualAlgo, nil, 0, yd, y)
		},
		"ConvolutionBackwardData": func(h *Handle) error {
			return h.ConvolutionBackwardData(1, wd, w, yd, y, cd, VirtualAlgo, nil, 0, xd, x)
		},
		"ConvolutionBackwardFilter": func(h *Handle) error {
			return h.ConvolutionBackwardFilter(1, xd, x, yd, y, cd, VirtualAlgo, nil, 0, wd, w)
		},
	}
	for _, backend := range []cudnn.Backend{cudnn.ModelOnlyBackend, cudnn.ModelBackend} {
		for _, mode := range []struct {
			name string
			opts []Option
		}{{"WR", nil}, {"WD", []Option{WithWD(64 << 20)}}} {
			for name, call := range entries {
				h := newTestHandle(t, backend, mode.opts...)
				if err := call(h); err == nil {
					t.Errorf("%v %s %s: accepted an output descriptor cuDNN rejects", backend, mode.name, name)
				}
				if len(h.kernels) != 0 || len(h.registered) != 0 || len(h.Plans()) != 0 {
					t.Errorf("%v %s %s: rejected call left %d kernel records, %d registered kernels, %d plans",
						backend, mode.name, name, len(h.kernels), len(h.registered), len(h.Plans()))
				}
			}
		}
	}
}
