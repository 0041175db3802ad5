package conv

// Tests of the kernel execution engine's contract: worker-count policy,
// cross-checks of every striped algorithm against the direct reference at
// P in {1, 4}, bitwise invariance across worker counts, the serial
// single-strip fallback, micro-batched BackwardFilter accumulation at
// every worker count, and the zero-allocation steady state.

import (
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

func TestChunkBoundsCoverDisjointly(t *testing.T) {
	for _, n := range []int{1, 5, 16, 17} {
		for workers := 1; workers <= 6; workers++ {
			covered := 0
			prevHi := 0
			for w := 0; w < workers; w++ {
				lo, hi := blas.Chunk(n, workers, w)
				if lo != prevHi {
					t.Fatalf("n=%d workers=%d: worker %d starts at %d, want %d", n, workers, w, lo, prevHi)
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

// Engine contract part 3: striping redistributes who computes each
// sample/tile, never the per-element operation order, so every algorithm
// is bit-identical at every worker count.
func TestWorkerCountBitwiseInvariance(t *testing.T) {
	for _, op := range Ops {
		for _, algo := range AlgosFor(op) {
			for si, cs := range testShapes {
				if !Supported(op, algo, cs) {
					continue
				}
				var ref []float32
				for _, p := range []int{1, 2, 4} {
					withWorkers(p, func() {
						x, w, y := randomProblem(cs, int64(si+41))
						ws := wsFor(t, op, algo, cs)
						if err := Run(op, algo, cs, x, w, y, 0.75, 0.25, ws); err != nil {
							t.Fatalf("P=%d %v/%v shape %d: %v", p, op, algo, si, err)
						}
						got := resultOf(op, x, w, y)
						if ref == nil {
							ref = append([]float32(nil), got...)
							return
						}
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
								t.Fatalf("P=%d %v/%v shape %d: elem %d = %x, P=1 gave %x",
									p, op, algo, si, i, math.Float32bits(got[i]), math.Float32bits(ref[i]))
							}
						}
					})
				}
			}
		}
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
	bitExact := map[Algo]bool{AlgoDirect: true, AlgoImplicitGemm: true, AlgoGemm: true}
	splits := [][]int{{3, 3}, {1, 2, 3}, {5, 1}}
	for _, p := range []int{1, 2, 4} {
		withWorkers(p, func() {
			for _, algo := range AlgosFor(BackwardFilter) {
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
