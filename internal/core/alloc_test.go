package core

import (
	"math/rand"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/obs"
	"ucudnn/internal/tensor"
)

// A warmed µ-cuDNN handle adds no allocation to a Convolution* call: the
// plan table is keyed by kernel value, the kernel's name is formatted
// only for a causal scope or a profiler row, each algorithm-selection
// series is resolved once, micro-batch views and a blended output's
// restore live on the handle. Model-only calls compute nothing at any
// worker cap; computed calls run at one worker, where the kernels
// themselves allocate nothing. The kernel is a narrow AlexNet conv2 at
// N=2 under 2 MiB, whose BackwardFilter WR divides into GEMM@1
// micro-batches at two workers.
func TestSteadyStateCallsDoNotAllocate(t *testing.T) {
	const limit = 2 << 20
	backends := []struct {
		backend cudnn.Backend
		workers int
	}{{cudnn.ModelOnlyBackend, 2}, {cudnn.ModelBackend, 1}}
	modes := []struct {
		name string
		opt  Option
	}{{"WR", WithWorkspaceLimit(limit)}, {"WD", WithWD(3 * limit)}}
	for _, b := range backends {
		prev := conv.SetMaxWorkers(b.workers)
		for _, m := range modes {
			for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
				h := newTestHandle(t, b.backend, m.opt, WithMetrics(reg))
				for _, c := range steadyCalls(t, h, limit, b.backend != cudnn.ModelOnlyBackend) {
					if err := c.run(); err != nil { // plans, grows the arena and the snapshot
						t.Fatalf("%v %s %s: %v", b.backend, m.name, c.name, err)
					}
					if n := testing.AllocsPerRun(10, func() { _ = c.run() }); n != 0 {
						t.Errorf("%v %s, registry %t: %s allocates %v per call", b.backend, m.name, reg != nil, c.name, n)
					}
				}
				divided := false
				for _, p := range h.Plans() {
					divided = divided || !p.Config.Undivided()
				}
				if b.workers > 1 && m.name == "WR" && !divided {
					t.Errorf("%v WR: no plan divides the batch, so the micro-batch loop goes unchecked", b.backend)
				}
			}
		}
		conv.SetMaxWorkers(prev)
	}
}

// steadyCall is one named Convolution* call on a handle.
type steadyCall struct {
	name string
	run  func() error
}

// steadyCalls registers the three kernels of the narrow conv2 on h
// under limit and returns one call per op, BackwardFilter at beta 0 and
// 1. Tensors are allocated only when the backend computes.
func steadyCalls(t *testing.T, h *Handle, limit int64, compute bool) []steadyCall {
	t.Helper()
	xd, _ := cudnn.NewTensorDesc(2, 16, 27, 27)
	wd, _ := cudnn.NewFilterDesc(192, 16, 5, 5)
	cd, _ := cudnn.NewConvDesc(2, 2, 1, 1, 1, 1)
	yd, _ := cudnn.GetOutputDim(xd, wd, cd)
	var x, y *tensor.Tensor
	var w *tensor.FilterTensor
	if compute {
		cs := cudnn.Shape(xd, wd, cd)
		rng := rand.New(rand.NewSource(3))
		x, y = tensor.NewShaped(cs.In), tensor.NewShaped(cs.OutShape())
		w = tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
		x.Randomize(rng, 1)
		y.Randomize(rng, 1)
		w.Randomize(rng, 0.5)
	}
	fa, err := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.SpecifyWorkspaceLimit, limit)
	if err != nil {
		t.Fatal(err)
	}
	da, err := h.GetConvolutionBackwardDataAlgorithm(wd, yd, cd, xd, cudnn.SpecifyWorkspaceLimit, limit)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := h.GetConvolutionBackwardFilterAlgorithm(xd, yd, cd, wd, cudnn.SpecifyWorkspaceLimit, limit)
	if err != nil {
		t.Fatal(err)
	}
	return []steadyCall{
		{"Forward", func() error { return h.ConvolutionForward(1, xd, x, wd, w, cd, fa, nil, 0, yd, y) }},
		{"BackwardData", func() error { return h.ConvolutionBackwardData(1, wd, w, yd, y, cd, da, nil, 0, xd, x) }},
		{"BackwardFilter", func() error { return h.ConvolutionBackwardFilter(1, xd, x, yd, y, cd, ba, nil, 0, wd, w) }},
		{"BackwardFilter beta=1", func() error { return h.ConvolutionBackwardFilter(1, xd, x, yd, y, cd, ba, nil, 1, wd, w) }},
	}
}

// A model-only handle holds no workspace memory: it keeps the granted
// arena size as a number, which its calls check the kernels' floors
// against and Report shows. A computing handle planned the same way
// backs exactly that size. The fault point's grants are taken in the
// same order on both, so the sizes agree.
func TestModelOnlyHandleHoldsNoArena(t *testing.T) {
	const limit = 2 << 20
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	for _, m := range []struct {
		name string
		opt  Option
	}{{"WR", WithWorkspaceLimit(limit)}, {"WD", WithWD(3 * limit)}} {
		arena := map[cudnn.Backend]int64{}
		for _, backend := range []cudnn.Backend{cudnn.ModelOnlyBackend, cudnn.ModelBackend} {
			h := newTestHandle(t, backend, m.opt)
			for _, c := range steadyCalls(t, h, limit, backend != cudnn.ModelOnlyBackend) {
				if err := c.run(); err != nil {
					t.Fatalf("%v %s %s: %v", backend, m.name, c.name, err)
				}
			}
			got := h.Report().ArenaBytes
			switch {
			case got == 0:
				t.Fatalf("%v %s: no plan needs workspace, so the arena goes unchecked", backend, m.name)
			case backend == cudnn.ModelOnlyBackend && h.wsArena != nil:
				t.Errorf("%v %s: holds a %d-float arena no kernel reads", backend, m.name, len(h.wsArena))
			case backend != cudnn.ModelOnlyBackend && int64(len(h.wsArena))*4 != got:
				t.Errorf("%v %s: arena of %d bytes, report says %d", backend, m.name, len(h.wsArena)*4, got)
			}
			arena[backend] = got
		}
		if arena[cudnn.ModelOnlyBackend] != arena[cudnn.ModelBackend] {
			t.Errorf("%s: model-only handle reports %d arena bytes, computing one %d", m.name, arena[cudnn.ModelOnlyBackend], arena[cudnn.ModelBackend])
		}
	}
}
