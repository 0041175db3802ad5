// Package conv implements the convolution algorithm zoo that the cuDNN
// layer exposes: eight algorithms with genuinely different arithmetic and
// workspace footprints, each supporting the three cuDNN convolution
// operations (Forward, BackwardData, BackwardFilter) where the real cuDNN
// does.
//
// All kernels compute the cuDNN blend semantics
//
//	out = alpha * op(inputs) + beta * out
//
// and are numerically validated against the direct reference in the tests.
// Workspace requirements are exact: Run never touches more than
// Workspace(op, algo, cs) bytes of the provided scratch buffer, and runs
// with as little as MinWorkspace(op, algo, cs) bytes by degrading to
// fewer workspace strips (see engine.go for the execution model).
package conv

import (
	"fmt"

	"ucudnn/internal/faults"
	"ucudnn/internal/tensor"
)

// Op identifies one of the three cuDNN convolution operations.
type Op int

const (
	// Forward computes output activations from input and filter.
	Forward Op = iota
	// BackwardData computes input gradients from output gradients and filter.
	BackwardData
	// BackwardFilter computes filter gradients from input and output gradients.
	BackwardFilter
	// NumOps is the number of operations.
	NumOps
)

func (op Op) String() string {
	switch op {
	case Forward:
		return "Forward"
	case BackwardData:
		return "BackwardData"
	case BackwardFilter:
		return "BackwardFilter"
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Ops lists all three convolution operations.
var Ops = []Op{Forward, BackwardData, BackwardFilter}

// Algo identifies a convolution algorithm. The set mirrors cuDNN v7's
// forward algorithm enumeration; backward operations support the subsets
// listed by AlgosFor, as in cuDNN.
type Algo int

const (
	// AlgoImplicitGemm lowers the convolution onto matrix multiply
	// implicitly, with zero workspace.
	AlgoImplicitGemm Algo = iota
	// AlgoImplicitPrecompGemm is cuDNN's implicit lowering with a
	// precomputed gather-index table in workspace. Here it runs
	// AlgoImplicitGemm's kernel and keeps the table's workspace size,
	// which plans reserve.
	AlgoImplicitPrecompGemm
	// AlgoGemm materializes the im2col lowering in workspace and runs SGEMM.
	AlgoGemm
	// AlgoDirect is the naive seven-loop convolution with zero workspace.
	AlgoDirect
	// AlgoFFT convolves in the frequency domain with full-plane transforms;
	// fastest for large batches but with a very large workspace.
	AlgoFFT
	// AlgoFFTTiling convolves in the frequency domain over fixed 32x32
	// spatial tiles, trading speed for a much smaller workspace.
	AlgoFFTTiling
	// AlgoWinograd is the fused Winograd minimal-filtering algorithm
	// (F(2x2,3x3)); small workspace, 3x3 stride-1 kernels only.
	AlgoWinograd
	// AlgoWinogradNonfused is the non-fused Winograd algorithm
	// (F(4x4,3x3) / F(2x2,5x5)) with materialized transforms in workspace.
	AlgoWinogradNonfused
	// NumAlgos is the number of algorithm identifiers.
	NumAlgos
)

var algoNames = [NumAlgos]string{
	"IMPLICIT_GEMM",
	"IMPLICIT_PRECOMP_GEMM",
	"GEMM",
	"DIRECT",
	"FFT",
	"FFT_TILING",
	"WINOGRAD",
	"WINOGRAD_NONFUSED",
}

func (a Algo) String() string {
	if a >= 0 && a < NumAlgos {
		return algoNames[a]
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// Per-op algorithm sets, hoisted to package level so AlgosFor (on Run's
// validation path) stays allocation-free.
var (
	forwardAlgos = []Algo{
		AlgoImplicitGemm, AlgoImplicitPrecompGemm, AlgoGemm, AlgoDirect,
		AlgoFFT, AlgoFFTTiling, AlgoWinograd, AlgoWinogradNonfused,
	}
	backwardDataAlgos = []Algo{
		AlgoImplicitGemm, AlgoGemm, AlgoDirect,
		AlgoFFT, AlgoFFTTiling, AlgoWinograd, AlgoWinogradNonfused,
	}
	backwardFilterAlgos = []Algo{
		AlgoImplicitGemm, AlgoGemm, AlgoDirect,
		AlgoFFT, AlgoFFTTiling, AlgoWinogradNonfused,
	}
)

// AlgosFor returns the algorithms available for op, mirroring the per-op
// algorithm sets of cuDNN v7. Callers must not mutate the returned slice.
func AlgosFor(op Op) []Algo {
	switch op {
	case Forward:
		return forwardAlgos
	case BackwardData:
		return backwardDataAlgos
	case BackwardFilter:
		return backwardFilterAlgos
	}
	return nil
}

// maxSampleElems bounds the per-sample tensor size IMPLICIT_PRECOMP_GEMM
// accepts: cuDNN's int32 table entries could index more; the value is
// fixed because it is part of the plan-visible support matrix.
const maxSampleElems = 1 << 24

// tiledExtent returns the plane the tiled algorithms (FFT, Winograd) cut
// into tiles for op on cs: dX for BackwardData (the transformed
// problem's output), the forward output otherwise.
func tiledExtent(op Op, cs tensor.ConvShape) (rows, cols int) {
	if op == BackwardData {
		return cs.In.H, cs.In.W
	}
	out := cs.OutShape()
	return out.H, out.W
}

// Supported reports whether algo can execute op on the given shape.
func Supported(op Op, algo Algo, cs tensor.ConvShape) bool {
	if !cs.Valid() {
		return false
	}
	found := false
	for _, a := range AlgosFor(op) {
		if a == algo {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	p := cs.Params.Normalized()
	spatial1 := p.StrideH == 1 && p.StrideW == 1 && p.DilationH == 1 && p.DilationW == 1
	padOK := p.PadH <= cs.Filt.R-1 && p.PadW <= cs.Filt.S-1
	switch algo {
	case AlgoImplicitGemm, AlgoGemm, AlgoDirect:
		return true
	case AlgoImplicitPrecompGemm:
		return cs.In.C*cs.In.H*cs.In.W < maxSampleElems
	case AlgoFFT:
		if !spatial1 || !padOK {
			return false
		}
		// cuDNN bounds the FFT plan size; the bound holds for every op,
		// so the larger of BackwardData's plane (H+R-1) and the others'
		// (H+2*pad) must fit.
		for _, o := range []Op{Forward, BackwardData} {
			if g := fftGeometry(o, algo, cs); g.p > fftMaxPlane || g.q > fftMaxPlane {
				return false
			}
		}
		return true
	case AlgoFFTTiling:
		return spatial1 && padOK && cs.Filt.R <= fftTile-1 && cs.Filt.S <= fftTile-1
	case AlgoWinograd:
		return spatial1 && cs.Filt.R == 3 && cs.Filt.S == 3
	case AlgoWinogradNonfused:
		if !spatial1 || cs.Filt.R != cs.Filt.S {
			return false
		}
		return cs.Filt.R == 3 || cs.Filt.R == 5
	}
	return false
}

// Workspace returns the scratch requirement in bytes for running op with
// algo on shape cs at full parallelism — P = min(MaxWorkers, batch)
// workspace strips for the batch-striped algorithms, plus per-worker
// scratch arenas for the tile-parallel ones — and whether the combination
// is supported. Run never touches more than this many bytes, and the
// WR/WD optimizers therefore account the true workspace cost of parallel
// execution.
func Workspace(op Op, algo Algo, cs tensor.ConvShape) (int64, bool) {
	return workspaceSize(op, algo, cs, false)
}

// MinWorkspace returns the single-strip workspace floor in bytes: the
// least scratch with which Run can execute op at all. Granting less than
// Workspace but at least MinWorkspace degrades execution to fewer strips
// (down to the serial single-strip path) without changing results.
func MinWorkspace(op Op, algo Algo, cs tensor.ConvShape) (int64, bool) {
	return workspaceSize(op, algo, cs, true)
}

func workspaceSize(op Op, algo Algo, cs tensor.ConvShape, minimal bool) (int64, bool) {
	if !Supported(op, algo, cs) {
		return 0, false
	}
	switch algo {
	case AlgoImplicitGemm, AlgoDirect:
		return 0, true
	case AlgoImplicitPrecompGemm:
		return precompWorkspace(cs), true
	case AlgoGemm:
		return gemmWorkspace(op, cs, minimal), true
	case AlgoFFT, AlgoFFTTiling:
		return fftWorkspace(op, algo, cs, minimal), true
	case AlgoWinograd:
		return winogradWorkspace(op, cs, true, minimal), true
	case AlgoWinogradNonfused:
		return winogradWorkspace(op, cs, false, minimal), true
	}
	return 0, false
}

// covers reports whether t's data covers its shape: samples at least
// C·H·W elements apart, (N-1)·stride + C·H·W elements in all.
func covers(t *tensor.Tensor) bool {
	per := t.Shape.C * t.Shape.H * t.Shape.W
	return t.Stride >= per && len(t.Data) >= (t.Shape.N-1)*t.Stride+per
}

// Run executes op with algo on the given buffers. The buffer roles follow
// cuDNN:
//
//	Forward:        y = alpha*conv(x, w) + beta*y
//	BackwardData:   x = alpha*corr*(y, w) + beta*x   (x holds dX, y holds dY)
//	BackwardFilter: w = alpha*grad(x, y) + beta*w    (w holds dW, y holds dY)
//
// x and y may be sample-strided views (tensor.Tensor.Channels): Run
// touches only each sample's C·H·W elements.
//
// ws must hold at least MinWorkspace(op, algo, cs) bytes (len(ws) is in
// float32 elements, i.e. bytes/4). Run uses as many workspace strips as
// fit in ws, up to the Workspace(op, algo, cs) full-parallel layout, and
// produces bit-identical results at every strip and worker count.
func Run(op Op, algo Algo, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32) error {
	if !Supported(op, algo, cs) {
		return fmt.Errorf("conv: %v not supported for %v on %v", algo, op, cs)
	}
	if x.Shape != cs.In {
		return fmt.Errorf("conv: x shape %v != %v", x.Shape, cs.In)
	}
	if w.Filter != cs.Filt {
		return fmt.Errorf("conv: filter %v != %v", w.Filter, cs.Filt)
	}
	if out := cs.OutShape(); y.Shape != out {
		return fmt.Errorf("conv: y shape %v != %v", y.Shape, out)
	}
	if !covers(x) || !covers(y) || len(w.Data) != w.Filter.Elems() {
		return fmt.Errorf("conv: operands do not cover their shapes: x %d elements at stride %d, y %d at stride %d, filter %d",
			len(x.Data), x.Stride, len(y.Data), y.Stride, len(w.Data))
	}
	if need, _ := MinWorkspace(op, algo, cs); int64(len(ws))*4 < need {
		return fmt.Errorf("conv: workspace too small: have %d bytes, need %d", int64(len(ws))*4, need)
	}
	// Injected kernel-launch failure (a no-op single atomic load unless a
	// fault registry is installed); placed after validation so an injected
	// error means "the kernel failed", not "the call was malformed".
	if err := faults.Err(faults.PointKernelRun); err != nil {
		return err
	}
	switch algo {
	case AlgoDirect:
		runDirect(op, cs, x, w, y, alpha, beta)
	case AlgoImplicitGemm, AlgoImplicitPrecompGemm:
		runImplicit(op, cs, x, w, y, alpha, beta)
	case AlgoGemm:
		runGemm(op, cs, x, w, y, alpha, beta, ws)
	case AlgoFFT, AlgoFFTTiling:
		runFFT(op, algo, cs, x, w, y, alpha, beta, ws)
	case AlgoWinograd:
		return runWinograd(op, cs, x, w, y, alpha, beta, ws, true)
	case AlgoWinogradNonfused:
		return runWinograd(op, cs, x, w, y, alpha, beta, ws, false)
	default:
		return fmt.Errorf("conv: unknown algorithm %v", algo)
	}
	return nil
}
