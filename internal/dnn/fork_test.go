package dnn

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

// The one worker cap bounds every kernel fork: at SetMaxWorkers(1) on a
// two-thread runtime, every convolution op x algorithm (at a shape whose
// per-sample SGEMM is above blas's small-product rule) and both FC passes
// run on the calling goroutine — no parallel launch and nothing
// allocated. DIRECT, the un-annotated test reference, builds
// its closure on every call and is exempt from the allocation half only.
func TestWorkerCapBoundsEveryKernel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(1))
	prof.Reset()
	prof.Enable()
	defer prof.Reset()
	defer prof.Disable()
	check := func(name string, mayAlloc bool, run func()) {
		t.Helper()
		// Launches are counted outside AllocsPerRun, which runs its
		// samples at GOMAXPROCS 1.
		prof.Reset()
		run()
		for _, r := range prof.Snapshot() {
			if r.Workers.Launches != 0 {
				t.Errorf("%s: %d launches under a cap of 1, want none", name, r.Workers.Launches)
			}
		}
		if mayAlloc {
			return
		}
		// The runs so far warmed the one-time transform caches. Ten
		// samples, because AllocsPerRun rounds the mean down: an object
		// the runtime allocates when a GC cycle lands in one sample (about
		// one run in four, with one sample) does not count; one per call
		// still does.
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/op under a cap of 1, want 0", name, allocs)
		}
	}

	rng := rand.New(rand.NewSource(5))
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 2, C: 16, H: 13, W: 13},
		Filt:   tensor.Filter{K: 32, C: 16, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	x, y := tensor.NewShaped(cs.In), tensor.NewShaped(cs.OutShape())
	w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)
	w.Randomize(rng, 1)
	for _, op := range conv.Ops {
		for _, algo := range conv.AlgosFor(op) {
			if !conv.Supported(op, algo, cs) {
				t.Fatalf("%v/%v unsupported on the test shape; pick a shape every algorithm accepts", op, algo)
			}
			bytes, _ := conv.Workspace(op, algo, cs)
			ws := make([]float32, (bytes+3)/4)
			check(fmt.Sprintf("%v/%v", op, algo), algo == conv.AlgoDirect, func() {
				if err := conv.Run(op, algo, cs, x, w, y, 1, 0, ws); err != nil {
					t.Fatal(err)
				}
			})
		}
	}

	s := tensor.Shape{N: 4, C: 16, H: 4, W: 4} // 4 x 256 x 256 products
	ctx := testCtx()
	l := NewFC("fc", 256)
	out, err := l.Setup(ctx, []tensor.Shape{s})
	if err != nil {
		t.Fatal(err)
	}
	fx, fdx, fy, fdy := tensor.NewShaped(s), tensor.NewShaped(s), tensor.NewShaped(out), tensor.NewShaped(out)
	fx.Randomize(rng, 1)
	fdy.Randomize(rng, 1)
	check("FC forward", false, func() {
		if err := l.Forward(ctx, []*tensor.Tensor{fx}, fy); err != nil {
			t.Fatal(err)
		}
	})
	check("FC backward", false, func() {
		if err := l.Backward(ctx, []*tensor.Tensor{fx}, fy, fdy, []*tensor.Tensor{fdx}); err != nil {
			t.Fatal(err)
		}
	})
}
