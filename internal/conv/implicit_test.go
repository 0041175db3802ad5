package conv

// Tests of the lazily packed implicit-GEMM kernels (implicit.go): bitwise
// identity of the three Forward GEMMs, the DIRECT cross-check on shapes
// that exercise every packer edge, worker-count invariance and the
// micro-batched BackwardFilter chain.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ucudnn/internal/blas"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

// implicitShapes stress the lowering packers: strides 2 and 4, dilation,
// asymmetric padding, 1x1, extents that are no multiple of the register
// tile (4x16) or the kc=192 / nc=160 blocks, several k-blocks, and N=1.
// All but the two smallest exceed blas's small-product rule (blas.AutoWorkers),
// so they fork at P > 1.
var implicitShapes = []tensor.ConvShape{
	// K=5, CRS=363 (two k-blocks), 25 pixels: nothing divides anything.
	{In: tensor.Shape{N: 2, C: 3, H: 23, W: 23}, Filt: tensor.Filter{K: 5, C: 3, R: 11, S: 11}, Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 4, StrideW: 4}},
	// 18x18 = 324 pixels: three column blocks forward, two k-blocks backward-filter.
	{In: tensor.Shape{N: 4, C: 3, H: 18, W: 18}, Filt: tensor.Filter{K: 5, C: 3, R: 3, S: 3}, Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}},
	// Stride 2 with asymmetric padding and a non-square filter.
	{In: tensor.Shape{N: 3, C: 4, H: 15, W: 12}, Filt: tensor.Filter{K: 9, C: 4, R: 3, S: 5}, Params: tensor.ConvParams{PadH: 0, PadW: 2, StrideH: 2, StrideW: 2}},
	// Mixed strides: only the W gather takes the strided path.
	{In: tensor.Shape{N: 2, C: 2, H: 9, W: 14}, Filt: tensor.Filter{K: 3, C: 2, R: 3, S: 3}, Params: tensor.ConvParams{PadH: 1, PadW: 0, StrideH: 1, StrideW: 3}},
	// Dilation 2x3 with stride 2: off-stride zero lanes in BackwardData.
	{In: tensor.Shape{N: 2, C: 6, H: 14, W: 17}, Filt: tensor.Filter{K: 12, C: 6, R: 3, S: 3}, Params: tensor.ConvParams{PadH: 2, PadW: 3, StrideH: 2, StrideW: 2, DilationH: 2, DilationW: 3}},
	// 1x1: CRS = C, K*R*S = K > kc.
	{In: tensor.Shape{N: 1, C: 9, H: 13, W: 13}, Filt: tensor.Filter{K: 200, C: 9, R: 1, S: 1}, Params: tensor.ConvParams{StrideH: 1, StrideW: 1}},
	// Stride larger than the filter: input pixels no output reads.
	{In: tensor.Shape{N: 1, C: 2, H: 10, W: 10}, Filt: tensor.Filter{K: 3, C: 2, R: 2, S: 2}, Params: tensor.ConvParams{StrideH: 3, StrideW: 3}},
	// The identity lowering over two KC channel blocks: C = 201.
	{In: tensor.Shape{N: 2, C: 201, H: 5, W: 7}, Filt: tensor.Filter{K: 6, C: 201, R: 1, S: 1}, Params: tensor.ConvParams{StrideH: 1, StrideW: 1}},
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// IMPLICIT_GEMM, IMPLICIT_PRECOMP_GEMM and GEMM Forward are the same
// SGEMM (same k order, kc split and alpha-fused weight pack) fed three
// ways, so they agree bit for bit, at every worker count.
func TestImplicitForwardBitwiseEqualsGemm(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		withWorkers(p, func() {
			for si, cs := range slices.Concat(testShapes, implicitShapes) {
				for _, ab := range [][2]float32{{1, 0}, {0.75, 0.5}, {-1.5, 1}} {
					var ref []float32
					for _, algo := range []Algo{AlgoGemm, AlgoImplicitGemm, AlgoImplicitPrecompGemm} {
						x, w, y := randomProblem(cs, int64(si+200))
						if err := Run(Forward, algo, cs, x, w, y, ab[0], ab[1], wsFor(t, Forward, algo, cs)); err != nil {
							t.Fatalf("P=%d %v shape %d: %v", p, algo, si, err)
						}
						if ref == nil {
							ref = y.Data
						} else if i := sameBits(y.Data, ref); i >= 0 {
							t.Fatalf("P=%d %v shape %d alpha=%v beta=%v: y[%d] = %x, GEMM gave %x", p, algo, si, ab[0], ab[1], i,
								math.Float32bits(y.Data[i]), math.Float32bits(ref[i]))
						}
					}
				}
			}
		})
	}
}

// All three ops of the GEMM family against the DIRECT reference with
// alpha != 1 and every beta branch of the fused store, and bit-identical
// at every worker count, on the packer-edge shapes and the identity
// rule's shapes.
func TestImplicitMatchesDirectAndWorkerInvariant(t *testing.T) {
	for si, cs := range slices.Concat(implicitShapes, loweringShapes) {
		for _, op := range Ops {
			for _, algo := range []Algo{AlgoGemm, AlgoImplicitGemm, AlgoImplicitPrecompGemm} {
				if !Supported(op, algo, cs) {
					continue
				}
				for _, beta := range []float32{0, 1, 0.5} {
					const alpha = 0.75
					name := fmt.Sprintf("%v/%v shape %d beta=%v", op, algo, si, beta)
					xr, wr, yr := randomProblem(cs, int64(si+300))
					runRef(op, cs, xr, wr, yr, alpha, beta)
					want := resultOf(op, xr, wr, yr)
					var ref []float32
					for _, p := range []int{1, 2, 4} {
						withWorkers(p, func() {
							x, w, y := randomProblem(cs, int64(si+300))
							if err := Run(op, algo, cs, x, w, y, alpha, beta, wsFor(t, op, algo, cs)); err != nil {
								t.Fatalf("%s P=%d: %v", name, p, err)
							}
							got := resultOf(op, x, w, y)
							if ref == nil {
								ref = got
								if !tensor.AllClose(got, want, tolFor(algo, cs), 1e-3) {
									t.Errorf("%s: maxdiff %g vs DIRECT", name, tensor.MaxAbsDiff(got, want))
								}
							} else if i := sameBits(got, ref); i >= 0 {
								t.Fatalf("%s: P=%d elem %d = %x, P=1 gave %x", name, p, i,
									math.Float32bits(got[i]), math.Float32bits(ref[i]))
							}
						})
					}
				}
			}
		}
	}
}

// BackwardFilter reduces sample by sample in ascending n, so the
// micro-batched beta=1 accumulation repeats the undivided chain exactly —
// here with several k-blocks per sample and a blended first micro-batch.
func TestImplicitBackwardFilterMicroBatchBitExact(t *testing.T) {
	cs := implicitShapes[1] // N=4, 324 pixels
	for _, beta := range []float32{0, 0.5} {
		for _, p := range []int{1, 2, 4} {
			withWorkers(p, func() {
				x, w, y := randomProblem(cs, 71)
				wu := w.Clone()
				if err := Run(BackwardFilter, AlgoImplicitGemm, cs, x, wu, y, 0.75, beta, nil); err != nil {
					t.Fatal(err)
				}
				for _, split := range [][]int{{1, 1, 2}, {2, 2}} {
					wm := w.Clone()
					off := 0
					for mi, mb := range split {
						b := float32(1)
						if mi == 0 {
							b = beta
						}
						if err := Run(BackwardFilter, AlgoImplicitGemm, cs.WithN(mb), x.Sample(off, mb), wm, y.Sample(off, mb), 0.75, b, nil); err != nil {
							t.Fatal(err)
						}
						off += mb
					}
					if i := sameBits(wm.Data, wu.Data); i >= 0 {
						t.Fatalf("P=%d beta=%v split %v: dW[%d] = %x, undivided %x", p, beta, split, i,
							math.Float32bits(wm.Data[i]), math.Float32bits(wu.Data[i]))
					}
				}
			})
		}
	}
}

// attributionPhases is the exact phase set a profiled Run of op on algo
// reports on cs: one entry per algorithm family's hook chain. GEMM lowers
// nothing where the lowering is X[n] itself, except in BackwardData,
// whose col2im scatter is the lowering's gradient.
func attributionPhases(op Op, algo Algo, cs tensor.ConvShape) []prof.Phase {
	switch algo {
	case AlgoImplicitGemm, AlgoImplicitPrecompGemm:
		return []prof.Phase{PhImplicitPack, blas.PhSgemmKernel}
	case AlgoGemm:
		phases := []prof.Phase{blas.PhSgemmKernel, blas.PhSgemmPack}
		if op == BackwardData || !identLowering(cs) {
			phases = append(phases, PhGemmIm2col)
		}
		if op == BackwardFilter {
			phases = append(phases, PhGemmReduce)
		}
		return phases
	case AlgoDirect:
		return []prof.Phase{PhDirectMain}
	case AlgoFFT, AlgoFFTTiling:
		return []prof.Phase{PhRFFTForward, PhRFFTPointwise, PhRFFTInverse}
	case AlgoWinograd, AlgoWinogradNonfused:
		if op == BackwardFilter {
			// The spectral products are plain SGEMMs, which record their
			// own phases.
			return []prof.Phase{PhWinogradTransformIn, blas.PhSgemmPack, blas.PhSgemmKernel, PhWinogradTransformOut}
		}
		return []prof.Phase{PhWinogradTransformIn, PhWinogradElementwise, PhWinogradTransformOut}
	}
	return nil
}

// profileOnce runs op on algo as the profiler's only row and returns it,
// after checking what no scheduler can disturb: attributed time within
// measured time, and exactly the family's phase set.
func profileOnce(t *testing.T, label string, op Op, algo Algo, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, ws []float32) prof.RowSnap {
	t.Helper()
	prof.Reset()
	tok := prof.Begin(label)
	err := Run(op, algo, cs, x, w, y, 1, 0, ws)
	prof.End(tok)
	if err != nil {
		t.Fatal(err)
	}
	rows := prof.Snapshot()
	if len(rows) != 1 {
		t.Fatalf("%s: %d profile rows, want 1", label, len(rows))
	}
	r := rows[0]
	if r.AttributedNS > r.MeasuredNS {
		t.Errorf("%s: attributed %d exceeds measured %d", label, r.AttributedNS, r.MeasuredNS)
	}
	got := map[prof.Phase]bool{}
	for _, ph := range r.Phases {
		got[prof.Phase(ph.Phase)] = true
	}
	want := attributionPhases(op, algo, cs)
	for _, ph := range want {
		if !got[ph] {
			t.Errorf("%s: phases %v lack %s", label, r.Phases, ph)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: phases %v, want exactly %v", label, r.Phases, want)
	}
	return r
}

// The profiler contract of a kernel row, for every op on every algorithm:
// the phase windows tile each worker's busy time, so attributed time
// never exceeds measured time and covers at least 95% of it, serial and
// striped, and the row reports exactly its family's phases. A window
// leaked on a continue or early return inside a t = prof.Next(...) chain
// shows up here as lost coverage and a missing phase. The 1x1 shape (an
// Inception reduction) pins the GEMM family's identity-lowering phases.
func TestImplicitProfileAttribution(t *testing.T) {
	cs3 := tensor.ConvShape{
		In:     tensor.Shape{N: 4, C: 32, H: 28, W: 28},
		Filt:   tensor.Filter{K: 64, C: 32, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	cs1 := tensor.ConvShape{
		In:     tensor.Shape{N: 4, C: 192, H: 28, W: 28},
		Filt:   tensor.Filter{K: 32, C: 192, R: 1, S: 1},
		Params: tensor.ConvParams{StrideH: 1, StrideW: 1},
	}
	prof.Enable()
	t.Cleanup(func() {
		prof.Disable()
		prof.Reset()
	})
	for _, p := range []int{1, 2, 4} {
		withWorkers(p, func() {
			for _, op := range Ops {
				for _, algo := range AlgosFor(op) {
					if !Supported(op, algo, cs3) {
						t.Fatalf("%v/%v unsupported on the 3x3 shape; pick a shape every algorithm accepts", op, algo)
					}
					profileRow(t, fmt.Sprintf("P=%d 3x3 %v/%v", p, op, algo), op, algo, cs3)
				}
				for _, algo := range []Algo{AlgoGemm, AlgoImplicitGemm, AlgoImplicitPrecompGemm} {
					if Supported(op, algo, cs1) {
						profileRow(t, fmt.Sprintf("P=%d 1x1 %v/%v", p, op, algo), op, algo, cs1)
					}
				}
			}
		})
	}
}

// profileRow holds one (op, algo, shape) row to the attribution contract.
// A worker preempted between two windows is busy but unattributed, so a
// loaded host can push one run under the bar; a leaked window is missing
// from every run. Only the coverage bar gets the retries.
func profileRow(t *testing.T, label string, op Op, algo Algo, cs tensor.ConvShape) {
	t.Helper()
	x, w, y := randomProblem(cs, 83)
	ws := wsFor(t, op, algo, cs)
	for attempt := 1; ; attempt++ {
		r := profileOnce(t, label, op, algo, cs, x, w, y, ws)
		if r.Coverage >= 0.95 || prof.RaceEnabled {
			return
		}
		if attempt == 3 {
			t.Errorf("%s: attributed %d, measured %d, coverage %.3f", label, r.AttributedNS, r.MeasuredNS, r.Coverage)
			return
		}
	}
}

// The serial path of the lowering packers allocates nothing: IMPLICIT
// BackwardFilter (NR lowered rows packed transposed) and PRECOMP Forward,
// at a 1x1 identity shape and at AlexNet conv1's 11x11 stride-4 geometry.
func TestImplicitLoweringZeroAllocs(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	conv1 := tensor.ConvShape{
		In:     tensor.Shape{N: 1, C: 3, H: 224, W: 224},
		Filt:   tensor.Filter{K: 64, C: 3, R: 11, S: 11},
		Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 4, StrideW: 4},
	}
	for si, cs := range []tensor.ConvShape{loweringShapes[0], conv1} {
		for _, c := range []struct {
			op   Op
			algo Algo
		}{{BackwardFilter, AlgoImplicitGemm}, {Forward, AlgoImplicitPrecompGemm}} {
			x, w, y := randomProblem(cs, 89)
			ws := wsFor(t, c.op, c.algo, cs)
			run := func() {
				if err := Run(c.op, c.algo, cs, x, w, y, 1, 0, ws); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("shape %d %v/%v: %.1f allocs/op on the serial path, want 0", si, c.op, c.algo, allocs)
			}
		}
	}
}
