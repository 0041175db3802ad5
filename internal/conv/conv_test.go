package conv

import (
	"math"
	"math/rand"
	"testing"

	"ucudnn/internal/tensor"
)

// testShapes covers strided, padded, dilated, odd-sized and kernel-variant
// convolutions. FFT/Winograd algorithms skip the shapes they don't support
// via Supported, which is itself under test.
var testShapes = []tensor.ConvShape{
	{In: tensor.Shape{N: 2, C: 3, H: 8, W: 8}, Filt: tensor.Filter{K: 4, C: 3, R: 3, S: 3}, Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}},
	{In: tensor.Shape{N: 1, C: 2, H: 9, W: 7}, Filt: tensor.Filter{K: 3, C: 2, R: 3, S: 3}, Params: tensor.ConvParams{StrideH: 1, StrideW: 1}},
	{In: tensor.Shape{N: 2, C: 2, H: 11, W: 11}, Filt: tensor.Filter{K: 2, C: 2, R: 5, S: 5}, Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1}},
	{In: tensor.Shape{N: 3, C: 4, H: 6, W: 6}, Filt: tensor.Filter{K: 2, C: 4, R: 3, S: 3}, Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 2, StrideW: 2}},
	{In: tensor.Shape{N: 1, C: 1, H: 12, W: 12}, Filt: tensor.Filter{K: 1, C: 1, R: 1, S: 1}, Params: tensor.ConvParams{StrideH: 1, StrideW: 1}},
	{In: tensor.Shape{N: 2, C: 3, H: 10, W: 10}, Filt: tensor.Filter{K: 3, C: 3, R: 3, S: 3}, Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1, DilationH: 2, DilationW: 2}},
	{In: tensor.Shape{N: 2, C: 2, H: 13, W: 9}, Filt: tensor.Filter{K: 3, C: 2, R: 4, S: 2}, Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}},
	{In: tensor.Shape{N: 4, C: 2, H: 7, W: 7}, Filt: tensor.Filter{K: 3, C: 2, R: 3, S: 3}, Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}},
	// Output extents >= winogradLargeTileMin: the non-fused Winograd path
	// selects F(6x6,3x3) here, so the whole matrix exercises it.
	{In: tensor.Shape{N: 2, C: 3, H: 16, W: 16}, Filt: tensor.Filter{K: 4, C: 3, R: 3, S: 3}, Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}},
	// Where the lane-batched Winograd kernels' edges are: K with whole
	// filter panels and a partial one (7, 9), several lane blocks of tiles
	// and of filter pairs, tile rows shorter and longer than a lane group,
	// all four transforms. (The wide filter bank — two kc-blocks of C, two
	// mc-blocks of K — is winogradWideShape: too much DIRECT for here.)
	{In: tensor.Shape{N: 3, C: 5, H: 17, W: 11}, Filt: tensor.Filter{K: 7, C: 5, R: 3, S: 3}, Params: tensor.ConvParams{StrideH: 1, StrideW: 1}},
	{In: tensor.Shape{N: 2, C: 6, H: 16, W: 16}, Filt: tensor.Filter{K: 9, C: 6, R: 5, S: 5}, Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1}},
	{In: tensor.Shape{N: 2, C: 9, H: 9, W: 35}, Filt: tensor.Filter{K: 6, C: 9, R: 3, S: 3}, Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}},
}

func randomProblem(cs tensor.ConvShape, seed int64) (*tensor.Tensor, *tensor.FilterTensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	w.Randomize(rng, 1)
	y := tensor.NewShaped(cs.OutShape())
	y.Randomize(rng, 1)
	return x, w, y
}

// runRef executes the direct reference for op.
func runRef(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32) {
	runDirect(op, cs, x, w, y, alpha, beta)
}

func wsFor(t *testing.T, op Op, algo Algo, cs tensor.ConvShape) []float32 {
	t.Helper()
	bytes, ok := Workspace(op, algo, cs)
	if !ok {
		t.Fatalf("Workspace(%v,%v) unsupported", op, algo)
	}
	return make([]float32, (bytes+3)/4)
}

// tolFor scales the comparison tolerance by problem size; FFT in fp32
// storage and Winograd large tiles lose a few bits.
func tolFor(algo Algo, cs tensor.ConvShape) float64 {
	base := 1e-4 * math.Sqrt(float64(cs.Filt.C*cs.Filt.R*cs.Filt.S))
	switch algo {
	case AlgoFFT, AlgoFFTTiling:
		return 5 * base
	case AlgoWinograd, AlgoWinogradNonfused:
		return 10 * base
	}
	return base
}

func TestAllAlgorithmsMatchDirect(t *testing.T) {
	for _, op := range Ops {
		for _, algo := range AlgosFor(op) {
			if algo == AlgoDirect {
				continue
			}
			for si, cs := range testShapes {
				if !Supported(op, algo, cs) {
					continue
				}
				x, w, y := randomProblem(cs, int64(si+1))
				xr, wr, yr := x.Clone(), w.Clone(), y.Clone()
				alpha, beta := float32(1), float32(0)
				runRef(op, cs, xr, wr, yr, alpha, beta)
				ws := wsFor(t, op, algo, cs)
				if err := Run(op, algo, cs, x, w, y, alpha, beta, ws); err != nil {
					t.Fatalf("%v/%v shape %d: %v", op, algo, si, err)
				}
				var got, want []float32
				switch op {
				case Forward:
					got, want = y.Data, yr.Data
				case BackwardData:
					got, want = x.Data, xr.Data
				case BackwardFilter:
					got, want = w.Data, wr.Data
				}
				if !tensor.AllClose(got, want, tolFor(algo, cs), 1e-3) {
					t.Errorf("%v/%v shape %d (%v): maxdiff %g (maxabs %g)",
						op, algo, si, cs, tensor.MaxAbsDiff(got, want), tensor.MaxAbs(want))
				}
			}
		}
	}
}

func TestAlphaBetaBlend(t *testing.T) {
	cs := testShapes[0]
	for _, op := range Ops {
		for _, algo := range AlgosFor(op) {
			if !Supported(op, algo, cs) {
				continue
			}
			alpha, beta := float32(0.5), float32(0.25)
			x, w, y := randomProblem(cs, 7)
			xr, wr, yr := x.Clone(), w.Clone(), y.Clone()
			runRef(op, cs, xr, wr, yr, alpha, beta)
			ws := wsFor(t, op, algo, cs)
			if err := Run(op, algo, cs, x, w, y, alpha, beta, ws); err != nil {
				t.Fatalf("%v/%v: %v", op, algo, err)
			}
			var got, want []float32
			switch op {
			case Forward:
				got, want = y.Data, yr.Data
			case BackwardData:
				got, want = x.Data, xr.Data
			case BackwardFilter:
				got, want = w.Data, wr.Data
			}
			if !tensor.AllClose(got, want, tolFor(algo, cs), 1e-3) {
				t.Errorf("%v/%v alpha/beta: maxdiff %g", op, algo, tensor.MaxAbsDiff(got, want))
			}
		}
	}
}

// The paper's core semantic claim (§II): splitting the mini-batch loop
// preserves the computation. Forward/BackwardData split trivially;
// BackwardFilter splits by accumulating with beta=1.
func TestMicroBatchEquivalence(t *testing.T) {
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 6, C: 3, H: 8, W: 8},
		Filt:   tensor.Filter{K: 4, C: 3, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	splits := [][]int{{6}, {3, 3}, {1, 2, 3}, {2, 2, 2}, {5, 1}}
	for _, op := range Ops {
		for _, algo := range AlgosFor(op) {
			if !Supported(op, algo, cs) {
				continue
			}
			x, w, y := randomProblem(cs, 11)
			// Undivided reference with the algorithm itself.
			xu, wu, yu := x.Clone(), w.Clone(), y.Clone()
			ws := wsFor(t, op, algo, cs)
			if err := Run(op, algo, cs, xu, wu, yu, 1, 0, ws); err != nil {
				t.Fatal(err)
			}
			for _, split := range splits {
				xs, wsT, ys := x.Clone(), w.Clone(), y.Clone()
				off := 0
				for mi, mb := range split {
					mcs := cs.WithN(mb)
					mws := wsFor(t, op, algo, mcs)
					var err error
					switch op {
					case Forward:
						err = Run(op, algo, mcs, xs.Sample(off, mb), wsT, ys.Sample(off, mb), 1, 0, mws)
					case BackwardData:
						err = Run(op, algo, mcs, xs.Sample(off, mb), wsT, ys.Sample(off, mb), 1, 0, mws)
					case BackwardFilter:
						beta := float32(1)
						if mi == 0 {
							beta = 0
						}
						err = Run(op, algo, mcs, xs.Sample(off, mb), wsT, ys.Sample(off, mb), 1, beta, mws)
					}
					if err != nil {
						t.Fatalf("%v/%v split %v: %v", op, algo, split, err)
					}
					off += mb
				}
				var got, want []float32
				switch op {
				case Forward:
					got, want = ys.Data, yu.Data
				case BackwardData:
					got, want = xs.Data, xu.Data
				case BackwardFilter:
					got, want = wsT.Data, wu.Data
				}
				if !tensor.AllClose(got, want, tolFor(algo, cs), 1e-3) {
					t.Errorf("%v/%v split %v: maxdiff %g", op, algo, split, tensor.MaxAbsDiff(got, want))
				}
			}
		}
	}
}

// For the direct algorithm the micro-batched BackwardFilter accumulation
// is bit-for-bit identical to the undivided run (DESIGN.md invariant 1).
func TestDirectBackwardFilterBitwiseMicroBatch(t *testing.T) {
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 5, C: 2, H: 6, W: 6},
		Filt:   tensor.Filter{K: 3, C: 2, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	x, w, y := randomProblem(cs, 13)
	wu := w.Clone()
	runDirect(BackwardFilter, cs, x, wu, y, 1, 0)
	for _, split := range [][]int{{2, 3}, {1, 1, 3}, {4, 1}} {
		wsT := w.Clone()
		off := 0
		for mi, mb := range split {
			beta := float32(1)
			if mi == 0 {
				beta = 0
			}
			runDirect(BackwardFilter, cs.WithN(mb), x.Sample(off, mb), wsT, y.Sample(off, mb), 1, beta)
			off += mb
		}
		for i := range wsT.Data {
			if wsT.Data[i] != wu.Data[i] {
				t.Fatalf("split %v: dW[%d] = %x != %x", split, i,
					math.Float32bits(wsT.Data[i]), math.Float32bits(wu.Data[i]))
			}
		}
	}
}

func TestRunRejectsSmallWorkspace(t *testing.T) {
	cs := testShapes[0]
	x, w, y := randomProblem(cs, 17)
	need, _ := MinWorkspace(Forward, AlgoGemm, cs)
	small := make([]float32, need/4-1)
	if err := Run(Forward, AlgoGemm, cs, x, w, y, 1, 0, small); err == nil {
		t.Fatal("expected workspace error")
	}
	// Anything from the floor up to the full striped size must execute.
	if err := Run(Forward, AlgoGemm, cs, x, w, y, 1, 0, make([]float32, need/4)); err != nil {
		t.Fatalf("MinWorkspace-sized buffer rejected: %v", err)
	}
}

func TestRunRejectsShapeMismatch(t *testing.T) {
	cs := testShapes[0]
	x, w, y := randomProblem(cs, 19)
	bad := tensor.NewShaped(cs.In.WithN(cs.In.N + 1))
	if err := Run(Forward, AlgoDirect, cs, bad, w, y, 1, 0, nil); err == nil {
		t.Fatal("expected x-shape error")
	}
	if err := Run(Forward, AlgoDirect, cs, x, tensor.NewFilter(1, cs.Filt.C, 3, 3), y, 1, 0, nil); err == nil {
		t.Fatal("expected filter error")
	}
	if err := Run(Forward, AlgoDirect, cs, x, w, tensor.NewShaped(cs.In), 1, 0, nil); err == nil {
		t.Fatal("expected y-shape error")
	}
}

func TestSupportedMatrix(t *testing.T) {
	stride2 := tensor.ConvShape{In: tensor.Shape{N: 1, C: 1, H: 8, W: 8}, Filt: tensor.Filter{K: 1, C: 1, R: 3, S: 3}, Params: tensor.ConvParams{StrideH: 2, StrideW: 2}}
	k5 := tensor.ConvShape{In: tensor.Shape{N: 1, C: 1, H: 8, W: 8}, Filt: tensor.Filter{K: 1, C: 1, R: 5, S: 5}, Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1}}
	k3 := tensor.ConvShape{In: tensor.Shape{N: 1, C: 1, H: 8, W: 8}, Filt: tensor.Filter{K: 1, C: 1, R: 3, S: 3}, Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}}
	if Supported(Forward, AlgoFFT, stride2) {
		t.Error("FFT must reject stride 2")
	}
	if Supported(Forward, AlgoWinograd, k5) {
		t.Error("fused Winograd must reject 5x5")
	}
	if !Supported(Forward, AlgoWinogradNonfused, k5) {
		t.Error("non-fused Winograd must accept 5x5")
	}
	if !Supported(Forward, AlgoWinograd, k3) {
		t.Error("fused Winograd must accept 3x3 stride 1")
	}
	if Supported(BackwardData, AlgoImplicitPrecompGemm, k3) {
		t.Error("IMPLICIT_PRECOMP_GEMM is forward-only")
	}
	if Supported(BackwardFilter, AlgoWinograd, k3) {
		t.Error("fused Winograd has no BackwardFilter")
	}
	bad := tensor.ConvShape{In: tensor.Shape{N: 1, C: 2, H: 4, W: 4}, Filt: tensor.Filter{K: 1, C: 3, R: 3, S: 3}}
	for _, op := range Ops {
		for algo := Algo(0); algo < NumAlgos; algo++ {
			if Supported(op, algo, bad) {
				t.Errorf("%v/%v accepted invalid shape", op, algo)
			}
		}
	}
}

// FFT workspace must dwarf GEMM's on a conv2-like layer: the size
// relationship that drives the whole paper.
func TestWorkspaceOrdering(t *testing.T) {
	conv2 := tensor.ConvShape{
		In:     tensor.Shape{N: 256, C: 64, H: 27, W: 27},
		Filt:   tensor.Filter{K: 192, C: 64, R: 5, S: 5},
		Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1},
	}
	fft, ok := Workspace(Forward, AlgoFFT, conv2)
	if !ok {
		t.Fatal("FFT should support conv2")
	}
	gemm, _ := Workspace(Forward, AlgoGemm, conv2)
	zero, _ := Workspace(Forward, AlgoImplicitGemm, conv2)
	if zero != 0 {
		t.Fatal("implicit GEMM workspace must be zero")
	}
	if fft < 100<<20 {
		t.Fatalf("conv2 FFT workspace = %d MiB, want hundreds of MiB", fft>>20)
	}
	if gemm > 32<<20 || gemm == 0 {
		t.Fatalf("conv2 GEMM workspace = %d, want small nonzero", gemm)
	}
	// Micro-batching must shrink the FFT workspace.
	fft32, _ := Workspace(Forward, AlgoFFT, conv2.WithN(32))
	if fft32*2 > fft {
		t.Fatalf("FFT workspace not batch-proportional: %d vs %d", fft32, fft)
	}
	// FFT_TILING must need less workspace than FFT on larger spatial dims.
	big := tensor.ConvShape{
		In:     tensor.Shape{N: 32, C: 64, H: 56, W: 56},
		Filt:   tensor.Filter{K: 64, C: 64, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	full, _ := Workspace(Forward, AlgoFFT, big)
	tiled, _ := Workspace(Forward, AlgoFFTTiling, big)
	if tiled >= full {
		t.Fatalf("tiling workspace %d should beat full FFT %d", tiled, full)
	}
}

// Numeric gradient check: BackwardData and BackwardFilter must be the true
// gradients of Forward.
func TestGradientsNumerically(t *testing.T) {
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 2, C: 2, H: 5, W: 5},
		Filt:   tensor.Filter{K: 2, C: 2, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 2, StrideW: 2},
	}
	x, w, _ := randomProblem(cs, 23)
	out := cs.OutShape()
	// Loss = sum(conv(x, w) * g) for fixed random g.
	rng := rand.New(rand.NewSource(24))
	g := tensor.NewShaped(out)
	g.Randomize(rng, 1)
	loss := func(x *tensor.Tensor, w *tensor.FilterTensor) float64 {
		y := tensor.NewShaped(out)
		runDirect(Forward, cs, x, w, y, 1, 0)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i]) * float64(g.Data[i])
		}
		return s
	}
	// Analytic gradients.
	dx := tensor.NewShaped(cs.In)
	runDirect(BackwardData, cs, dx, w, g, 1, 0)
	dw := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	runDirect(BackwardFilter, cs, x, dw, g, 1, 0)
	const h = 1e-2
	for _, i := range []int{0, 7, len(x.Data) - 1} {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := loss(x, w)
		x.Data[i] = orig - h
		lm := loss(x, w)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-float64(dx.Data[i])) > 1e-2*(1+math.Abs(num)) {
			t.Errorf("dX[%d]: numeric %g analytic %g", i, num, dx.Data[i])
		}
	}
	for _, i := range []int{0, 5, len(w.Data) - 1} {
		orig := w.Data[i]
		w.Data[i] = orig + h
		lp := loss(x, w)
		w.Data[i] = orig - h
		lm := loss(x, w)
		w.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-float64(dw.Data[i])) > 1e-2*(1+math.Abs(num)) {
			t.Errorf("dW[%d]: numeric %g analytic %g", i, num, dw.Data[i])
		}
	}
}

func TestAlgoStrings(t *testing.T) {
	if AlgoFFT.String() != "FFT" || AlgoWinogradNonfused.String() != "WINOGRAD_NONFUSED" {
		t.Fatal("algo names wrong")
	}
	if Forward.String() != "Forward" || BackwardFilter.String() != "BackwardFilter" {
		t.Fatal("op names wrong")
	}
	if Algo(99).String() == "" || Op(99).String() == "" {
		t.Fatal("out-of-range strings must not be empty")
	}
}

func TestAlgosForCounts(t *testing.T) {
	if n := len(AlgosFor(Forward)); n != 8 {
		t.Fatalf("forward algos = %d, want 8", n)
	}
	if n := len(AlgosFor(BackwardData)); n != 7 {
		t.Fatalf("bwd-data algos = %d, want 7", n)
	}
	if n := len(AlgosFor(BackwardFilter)); n != 6 {
		t.Fatalf("bwd-filter algos = %d, want 6", n)
	}
	if AlgosFor(Op(9)) != nil {
		t.Fatal("unknown op must have no algos")
	}
}

func TestParallelForCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		for workers := 1; workers <= 5; workers++ {
			hits := make([]int32, n)
			fork(workers, n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
		}
	}
}
