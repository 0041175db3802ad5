package conv

// Tests of the kernel execution engine's contract: worker-count policy,
// cross-checks of every striped algorithm against the direct reference at
// P in {1, 4}, bitwise invariance across worker counts, the serial
// single-strip fallback, micro-batched BackwardFilter accumulation at
// every worker count, and the zero-allocation steady state.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ucudnn/internal/blas"
	"ucudnn/internal/tensor"
)

// withWorkers runs f with the engine pinned to p workers, restoring the
// previous pin afterwards.
func withWorkers(p int, f func()) {
	prev := SetMaxWorkers(p)
	defer SetMaxWorkers(prev)
	f()
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(3)
	defer SetMaxWorkers(prev)
	if got := MaxWorkers(); got != 3 {
		t.Fatalf("MaxWorkers = %d, want 3", got)
	}
	if got := SetMaxWorkers(0); got != 3 {
		t.Fatalf("SetMaxWorkers returned %d, want previous 3", got)
	}
	if got := MaxWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("automatic MaxWorkers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if SetMaxWorkers(-5); MaxWorkers() != runtime.GOMAXPROCS(0) {
		t.Fatal("negative SetMaxWorkers must restore the automatic default")
	}
}

func TestFitStripes(t *testing.T) {
	for _, tc := range []struct{ want, have, strip, out int }{
		{4, 400, 100, 4},  // all strips fit
		{4, 250, 100, 2},  // only two whole strips fit
		{4, 99, 100, 1},   // below one strip: serial floor
		{4, 1000, 0, 4},   // no striping dimension
		{1, 1000, 100, 1}, // serial stays serial
	} {
		if got := fitStripes(tc.want, tc.have, tc.strip); got != tc.out {
			t.Errorf("fitStripes(%d, %d, %d) = %d, want %d", tc.want, tc.have, tc.strip, got, tc.out)
		}
	}
}

// The ranges blas.Fork hands the striped algorithms tile [0, n) in worker
// order with no gap, overlap or empty range.
func TestChunkBoundsCoverDisjointly(t *testing.T) {
	for _, n := range []int{1, 5, 16, 17} {
		for workers := 1; workers <= 6; workers++ {
			bounds := make([][2]int, workers)
			for i := range bounds {
				bounds[i] = [2]int{-1, -1}
			}
			blas.Fork(workers, n, func(w, lo, hi int) { bounds[w] = [2]int{lo, hi} })
			covered := 0
			prevHi := 0
			for w, b := range bounds {
				lo, hi := b[0], b[1]
				if lo < 0 {
					if prevHi != n {
						t.Fatalf("n=%d workers=%d: worker %d got no range before %d covered", n, workers, w, n)
					}
					continue
				}
				if lo != prevHi {
					t.Fatalf("n=%d workers=%d: worker %d starts at %d, want %d", n, workers, w, lo, prevHi)
				}
				if hi <= lo {
					t.Fatalf("n=%d workers=%d: worker %d got empty range [%d, %d)", n, workers, w, lo, hi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("n=%d workers=%d: covered %d", n, workers, covered)
			}
		}
	}
}

// Every algorithm must match the direct reference at both the serial
// worker count and the striped one — the ISSUE's P in {1, 4} cross-check
// over the strided/padded/dilated shape matrix.
func TestAllAlgorithmsMatchDirectAtWorkerCounts(t *testing.T) {
	for _, p := range []int{1, 4} {
		withWorkers(p, func() {
			for _, op := range Ops {
				for _, algo := range AlgosFor(op) {
					if algo == AlgoDirect {
						continue
					}
					for si, cs := range testShapes {
						if !Supported(op, algo, cs) {
							continue
						}
						x, w, y := randomProblem(cs, int64(100*p+si))
						xr, wr, yr := x.Clone(), w.Clone(), y.Clone()
						runRef(op, cs, xr, wr, yr, 1, 0)
						ws := wsFor(t, op, algo, cs)
						if err := Run(op, algo, cs, x, w, y, 1, 0, ws); err != nil {
							t.Fatalf("P=%d %v/%v shape %d: %v", p, op, algo, si, err)
						}
						got, want := resultOf(op, x, w, y), resultOf(op, xr, wr, yr)
						if !tensor.AllClose(got, want, tolFor(algo, cs), 1e-3) {
							t.Errorf("P=%d %v/%v shape %d: maxdiff %g", p, op, algo, si,
								tensor.MaxAbsDiff(got, want))
						}
					}
				}
			}
		})
	}
}

// resultOf picks the tensor an op writes.
func resultOf(op Op, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor) []float32 {
	switch op {
	case Forward:
		return y.Data
	case BackwardData:
		return x.Data
	case BackwardFilter:
		return w.Data
	}
	return nil
}

// gemmSplitShapes are GEMM shapes with fewer samples than workers and
// products big enough that runGemm splits each sample across the workers
// (TestGemmSplitShapesTakeTheSplit): an 11x11 stride-4 filter (R*S =
// 121, so a channel's colGrad rows straddle MR panels) with a partial
// pixel panel, a 5x5 pad-2 filter over an odd channel count with more
// than KC output pixels, and an N = 2 batch that only splits at P = 4.
var gemmSplitShapes = []tensor.ConvShape{
	{In: tensor.Shape{N: 1, C: 6, H: 39, W: 39}, Filt: tensor.Filter{K: 8, C: 6, R: 11, S: 11}, Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 4, StrideW: 4}},
	{In: tensor.Shape{N: 1, C: 5, H: 17, W: 17}, Filt: tensor.Filter{K: 12, C: 5, R: 5, S: 5}, Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1}},
	{In: tensor.Shape{N: 2, C: 9, H: 14, W: 14}, Filt: tensor.Filter{K: 16, C: 9, R: 3, S: 3}, Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}},
}

// The split shapes must take the split they exist to cover: at P = 4
// every op of every shape, at P = 2 the N = 1 ones.
func TestGemmSplitShapesTakeTheSplit(t *testing.T) {
	for _, p := range []int{2, 4} {
		withWorkers(p, func() {
			for si, cs := range gemmSplitShapes {
				if cs.In.N >= p {
					continue
				}
				for _, op := range Ops {
					ws := wsFor(t, op, AlgoGemm, cs)
					if batch, split := gemmLayout(op, cs, len(ws)); batch > 1 || split < 2 {
						t.Errorf("P=%d %v shape %d: layout batch=%d split=%d, want a split", p, op, si, batch, split)
					}
				}
			}
		})
	}
}

// A call with fewer samples than workers keeps its batch stripes when
// splitting a sample would use no more workers than they do: at P = 4,
// an N = 2 product under blas's small-product threshold (split 1), and
// an N = 3 call whose BackwardData has two channel groups and whose
// BackwardFilter has three CRS panels. That N = 3 call's Forward, with
// thirteen pixel panels, still splits.
func TestGemmLayoutKeepsBatchStripesWhenSplitIsNarrower(t *testing.T) {
	pad1 := tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}
	small := tensor.ConvShape{In: tensor.Shape{N: 2, C: 4, H: 8, W: 8}, Filt: tensor.Filter{K: 8, C: 4, R: 3, S: 3}, Params: pad1}
	narrow := tensor.ConvShape{In: tensor.Shape{N: 3, C: 5, H: 14, W: 14}, Filt: tensor.Filter{K: 16, C: 5, R: 3, S: 3}, Params: pad1}
	cases := []struct {
		name         string
		cs           tensor.ConvShape
		op           Op
		batch, split int
	}{
		{"small", small, Forward, 2, 0},
		{"small", small, BackwardData, 2, 0},
		{"small", small, BackwardFilter, 2, 0},
		{"narrow", narrow, Forward, 0, 4},
		{"narrow", narrow, BackwardData, 3, 0},
		{"narrow", narrow, BackwardFilter, 3, 0},
	}
	withWorkers(4, func() {
		for _, c := range cases {
			ws := wsFor(t, c.op, AlgoGemm, c.cs)
			if batch, split := gemmLayout(c.op, c.cs, len(ws)); batch != c.batch || split != c.split {
				t.Errorf("P=4 %s %v: layout batch=%d split=%d, want batch=%d split=%d",
					c.name, c.op, batch, split, c.batch, c.split)
			}
		}
	})
}

// Engine contract part 3: striping redistributes who computes each
// sample/tile, never the per-element operation order, so every algorithm
// is bit-identical at every worker count — GEMM on the split shapes too.
func TestWorkerCountBitwiseInvariance(t *testing.T) {
	for _, op := range Ops {
		for _, algo := range AlgosFor(op) {
			for si, cs := range testShapes {
				if Supported(op, algo, cs) {
					checkWorkerCountBits(t, op, algo, fmt.Sprintf("shape %d", si), cs, int64(si+41))
				}
			}
		}
		for si, cs := range gemmSplitShapes {
			checkWorkerCountBits(t, op, AlgoGemm, fmt.Sprintf("split shape %d", si), cs, int64(si+43))
		}
	}
}

// checkWorkerCountBits runs op/algo on cs at P = 1, 2 and 4 and fails on
// the first element whose bits differ from P = 1's.
func checkWorkerCountBits(t *testing.T, op Op, algo Algo, name string, cs tensor.ConvShape, seed int64) {
	t.Helper()
	var ref []float32
	for _, p := range []int{1, 2, 4} {
		withWorkers(p, func() {
			x, w, y := randomProblem(cs, seed)
			ws := wsFor(t, op, algo, cs)
			if err := Run(op, algo, cs, x, w, y, 0.75, 0.25, ws); err != nil {
				t.Fatalf("P=%d %v/%v %s: %v", p, op, algo, name, err)
			}
			got := resultOf(op, x, w, y)
			if ref == nil {
				ref = append([]float32(nil), got...)
				return
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("P=%d %v/%v %s: elem %d = %x, P=1 gave %x",
						p, op, algo, name, i, math.Float32bits(got[i]), math.Float32bits(ref[i]))
				}
			}
		})
	}
}

// A workspace at the MinWorkspace floor must produce bit-identical
// results to the fully striped workspace: fewer strips only serialize the
// batch loop, they never change the arithmetic.
func TestSerialFallbackBitwiseMatchesStriped(t *testing.T) {
	cs := testShapes[7] // N=4: enough samples to stripe at P=4
	withWorkers(4, func() {
		for _, op := range Ops {
			for _, algo := range AlgosFor(op) {
				if !Supported(op, algo, cs) {
					continue
				}
				fullB, _ := Workspace(op, algo, cs)
				minB, _ := MinWorkspace(op, algo, cs)
				x, w, y := randomProblem(cs, 59)
				xs, wsT, ys := x.Clone(), w.Clone(), y.Clone()
				if err := Run(op, algo, cs, x, w, y, 1, 0, make([]float32, (fullB+3)/4)); err != nil {
					t.Fatalf("%v/%v full: %v", op, algo, err)
				}
				if err := Run(op, algo, cs, xs, wsT, ys, 1, 0, make([]float32, (minB+3)/4)); err != nil {
					t.Fatalf("%v/%v floor: %v", op, algo, err)
				}
				got, want := resultOf(op, xs, wsT, ys), resultOf(op, x, w, y)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%v/%v: floor workspace diverges at elem %d (%x vs %x)",
							op, algo, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	})
}

// The §II loop-splitting guarantee at every worker count: the undivided
// BackwardFilter equals the micro-batched beta=1 accumulation. The
// sample-order algorithms (direct, implicit, GEMM) are bit-exact; the
// spectral algorithms (FFT, Winograd) transform whole-batch accumulations
// so they carry the documented float tolerance instead.
func TestBackwardFilterMicroBatchAtWorkerCounts(t *testing.T) {
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 6, C: 3, H: 8, W: 8},
		Filt:   tensor.Filter{K: 4, C: 3, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	checkFilterMicroBatches(t, cs, AlgosFor(BackwardFilter), [][]int{{3, 3}, {1, 2, 3}, {5, 1}})
	// The split shapes at N = 3: at P = 4 the undivided call and every
	// micro-batch split each sample; at P = 2 the micro-batches of one
	// sample split while the undivided call stripes the batch.
	for _, cs := range gemmSplitShapes {
		checkFilterMicroBatches(t, cs.WithN(3), []Algo{AlgoGemm}, [][]int{{1, 2}, {2, 1}, {1, 1, 1}})
	}
}

// checkFilterMicroBatches compares, at P = 1, 2 and 4, each algo's
// undivided BackwardFilter on cs with its beta=1 accumulation over each
// split of the batch.
func checkFilterMicroBatches(t *testing.T, cs tensor.ConvShape, algos []Algo, splits [][]int) {
	t.Helper()
	bitExact := map[Algo]bool{AlgoDirect: true, AlgoImplicitGemm: true, AlgoGemm: true}
	for _, p := range []int{1, 2, 4} {
		withWorkers(p, func() {
			for _, algo := range algos {
				if !Supported(BackwardFilter, algo, cs) {
					continue
				}
				x, w, y := randomProblem(cs, 61)
				wu := w.Clone()
				ws := wsFor(t, BackwardFilter, algo, cs)
				if err := Run(BackwardFilter, algo, cs, x, wu, y, 1, 0, ws); err != nil {
					t.Fatal(err)
				}
				for _, split := range splits {
					wsT := w.Clone()
					off := 0
					for mi, mb := range split {
						mcs := cs.WithN(mb)
						beta := float32(1)
						if mi == 0 {
							beta = 0
						}
						mws := wsFor(t, BackwardFilter, algo, mcs)
						if err := Run(BackwardFilter, algo, mcs, x.Sample(off, mb), wsT, y.Sample(off, mb), 1, beta, mws); err != nil {
							t.Fatalf("P=%d %v split %v: %v", p, algo, split, err)
						}
						off += mb
					}
					if bitExact[algo] {
						for i := range wsT.Data {
							if math.Float32bits(wsT.Data[i]) != math.Float32bits(wu.Data[i]) {
								t.Fatalf("P=%d %v split %v: dW[%d] = %x != %x", p, algo, split, i,
									math.Float32bits(wsT.Data[i]), math.Float32bits(wu.Data[i]))
							}
						}
					} else if !tensor.AllClose(wsT.Data, wu.Data, tolFor(algo, cs), 1e-3) {
						t.Errorf("P=%d %v split %v: maxdiff %g", p, algo, split,
							tensor.MaxAbsDiff(wsT.Data, wu.Data))
					}
				}
			}
		})
	}
}

// Steady-state execution must not allocate for any op on any algorithm
// the shape supports: all scratch comes from the caller's workspace or,
// for the implicit kernels' pack blocks, the stack. Pinned to the serial
// path by the worker cap alone — fork-join goroutine spawns are the one
// allocation parallel execution inherently makes. This is the gate of
// the zero-allocation contract: it catches an allocation in any function
// a kernel reaches. DIRECT is the test reference (1 alloc/op) and is
// excluded by name.
func TestForwardZeroAllocSteadyState(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 4, C: 4, H: 12, W: 12},
		Filt:   tensor.Filter{K: 8, C: 4, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	for _, op := range Ops {
		for _, algo := range AlgosFor(op) {
			if algo == AlgoDirect {
				continue
			}
			if !Supported(op, algo, cs) {
				t.Fatalf("%v/%v unsupported on the test shape; pick a shape every algorithm accepts", op, algo)
			}
			x, w, y := randomProblem(cs, 67)
			ws := wsFor(t, op, algo, cs)
			run := func() {
				if err := Run(op, algo, cs, x, w, y, 1, 0, ws); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm-up: transform caches are one-time costs
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("%v/%v allocates %.1f objects/op in steady state, want 0", op, algo, allocs)
			}
		}
	}
}

// A GEMM call that splits its one sample across P = 2 workers makes one
// launch, and allocates no more than one forked SGEMM of the product per
// sample that launch replaces: SgemmWorkers of Wmat times the lowering
// for Forward, of Wmatᵀ times dY for BackwardData, of dY * colᵀ for
// BackwardFilter. This is the unit-level guard of the end-to-end allocation
// budget (alloc_mib_per_iter): a split that forked per stage or per
// block would show here.
func TestGemmSplitAllocsAtMostOneSgemmLaunch(t *testing.T) {
	prevP := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prevP)
	prev := SetMaxWorkers(2)
	defer SetMaxWorkers(prev)
	cs := gemmSplitShapes[1]
	out := cs.OutShape()
	k, crs, pixels := cs.Filt.K, cs.Filt.C*cs.Filt.R*cs.Filt.S, out.H*out.W
	for _, op := range Ops {
		x, w, y := randomProblem(cs, 73)
		ws := wsFor(t, op, AlgoGemm, cs)
		if batch, split := gemmLayout(op, cs, len(ws)); batch > 1 || split != 2 {
			t.Fatalf("%v: layout batch=%d split=%d, want a split across 2 workers", op, batch, split)
		}
		var sgemm func()
		switch op {
		case Forward:
			a, b, c := make([]float32, k*crs), make([]float32, crs*pixels), make([]float32, k*pixels)
			sgemm = func() { blas.SgemmWorkers(2, false, false, k, pixels, crs, 1, a, crs, b, pixels, 0, c, pixels) }
		case BackwardData:
			a, b, c := make([]float32, k*crs), make([]float32, k*pixels), make([]float32, crs*pixels)
			sgemm = func() { blas.SgemmWorkers(2, true, false, crs, pixels, k, 1, a, crs, b, pixels, 0, c, pixels) }
		case BackwardFilter:
			a, b, c := make([]float32, k*pixels), make([]float32, crs*pixels), make([]float32, k*crs)
			sgemm = func() { blas.SgemmWorkers(2, false, true, k, crs, pixels, 1, a, pixels, b, pixels, 0, c, crs) }
		}
		run := func() {
			if err := Run(op, AlgoGemm, cs, x, w, y, 1, 0, ws); err != nil {
				t.Fatal(err)
			}
		}
		run()
		sgemm()
		got, want := testing.AllocsPerRun(20, run), testing.AllocsPerRun(20, sgemm)
		if got > want {
			t.Errorf("%v at P=2, N=1: %.0f allocs/op, one forked SGEMM makes %.0f", op, got, want)
		}
	}
}
