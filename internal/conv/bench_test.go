package conv_test

// Micro-benchmarks of the real CPU convolution kernels. These are the
// perf gate behind `make bench-smoke` and the numbers committed in
// BENCH_kernels.json: run with
//
//	go test -run=NONE -bench=BenchmarkConvKernels -benchmem ./internal/conv/
//
// The shapes are batch >= 8 so the batch-striped execution engine has
// samples to distribute; allocs/op is the steady-state allocation count
// the engine is required to keep at zero for the GEMM, implicit-GEMM and
// Winograd paths.

import (
	"fmt"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/tensor"
)

// benchShape is a mid-sized 3x3 stride-1 layer every algorithm supports.
func benchShape(n int) tensor.ConvShape {
	return tensor.ConvShape{
		In:     tensor.Shape{N: n, C: 16, H: 28, W: 28},
		Filt:   tensor.Filter{K: 32, C: 16, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
}

func benchProblem(b *testing.B, op conv.Op, algo conv.Algo, cs tensor.ConvShape) (*tensor.Tensor, *tensor.FilterTensor, *tensor.Tensor, []float32) {
	b.Helper()
	if !conv.Supported(op, algo, cs) {
		b.Skipf("%v unsupported for %v on %v", algo, op, cs)
	}
	// Benchmarks measure the engine at its automatic worker count (the
	// machine's GOMAXPROCS), not the deterministic pin TestMain sets for
	// the unit tests.
	prev := conv.SetMaxWorkers(0)
	b.Cleanup(func() { conv.SetMaxWorkers(prev) })
	x := tensor.NewShaped(cs.In)
	w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	y := tensor.NewShaped(cs.OutShape())
	for i := range x.Data {
		x.Data[i] = float32(i%17) * 0.25
	}
	for i := range w.Data {
		w.Data[i] = float32(i%5) * 0.5
	}
	wsBytes, ok := conv.Workspace(op, algo, cs)
	if !ok {
		b.Fatalf("Workspace(%v, %v) unsupported", op, algo)
	}
	return x, w, y, make([]float32, (wsBytes+3)/4)
}

// benchRun times steady-state conv.Run calls of one (op, algo) on cs.
func benchRun(b *testing.B, op conv.Op, algo conv.Algo, cs tensor.ConvShape) {
	x, w, y, ws := benchProblem(b, op, algo, cs)
	// Warm up once: transform caches etc. are one-time costs.
	if err := conv.Run(op, algo, cs, x, w, y, 1, 0, ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conv.Run(op, algo, cs, x, w, y, 1, 0, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvKernels measures the forward kernels at batch 8 — the
// micro-benchmark the ISSUE's >=2x GEMM speedup criterion refers to.
func BenchmarkConvKernels(b *testing.B) {
	cs := benchShape(8)
	for _, algo := range []conv.Algo{
		conv.AlgoGemm, conv.AlgoWinograd, conv.AlgoWinogradNonfused,
		conv.AlgoImplicitGemm, conv.AlgoFFTTiling, conv.AlgoDirect,
	} {
		b.Run(algo.String(), func(b *testing.B) { benchRun(b, conv.Forward, algo, cs) })
	}
}

// BenchmarkConvBackwardFilter measures the gradient kernels whose
// deterministic batch-order accumulation the micro-batch tests rely on.
func BenchmarkConvBackwardFilter(b *testing.B) {
	cs := benchShape(8)
	for _, algo := range []conv.Algo{conv.AlgoGemm, conv.AlgoWinogradNonfused, conv.AlgoImplicitGemm} {
		b.Run(algo.String(), func(b *testing.B) { benchRun(b, conv.BackwardFilter, algo, cs) })
	}
}

// BenchmarkConvImplicit measures the lazily packed kernels the other
// benchmarks leave out: the gather-form BackwardData and IMPLICIT_PRECOMP_GEMM
// Forward at the shared shape, and BackwardFilter at AlexNet conv1's
// (3 -> 64 channels, 11x11 stride 4 on 224x224, pad 2, N = 4), whose
// strided lowering is packed transposed.
func BenchmarkConvImplicit(b *testing.B) {
	cs := benchShape(8)
	conv1 := tensor.ConvShape{
		In:     tensor.Shape{N: 4, C: 3, H: 224, W: 224},
		Filt:   tensor.Filter{K: 64, C: 3, R: 11, S: 11},
		Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 4, StrideW: 4},
	}
	b.Run("BackwardData/IMPLICIT_GEMM", func(b *testing.B) { benchRun(b, conv.BackwardData, conv.AlgoImplicitGemm, cs) })
	b.Run("Forward/IMPLICIT_PRECOMP_GEMM", func(b *testing.B) { benchRun(b, conv.Forward, conv.AlgoImplicitPrecompGemm, cs) })
	b.Run("BackwardFilter/IMPLICIT_GEMM", func(b *testing.B) { benchRun(b, conv.BackwardFilter, conv.AlgoImplicitGemm, conv1) })
}

// BenchmarkConvPointwise measures a 1x1 Inception reduction (192 -> 32
// channels on 28x28, stride 1, no padding, N = 4), where the lowering is
// the input tensor itself: Forward and BackwardFilter on the GEMM family.
func BenchmarkConvPointwise(b *testing.B) {
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 4, C: 192, H: 28, W: 28},
		Filt:   tensor.Filter{K: 32, C: 192, R: 1, S: 1},
		Params: tensor.ConvParams{StrideH: 1, StrideW: 1},
	}
	for _, r := range []struct {
		op   conv.Op
		algo conv.Algo
	}{
		{conv.Forward, conv.AlgoImplicitPrecompGemm},
		{conv.Forward, conv.AlgoGemm},
		{conv.BackwardFilter, conv.AlgoImplicitGemm},
		{conv.BackwardFilter, conv.AlgoGemm},
	} {
		b.Run(r.op.String()+"/"+r.algo.String(), func(b *testing.B) { benchRun(b, r.op, r.algo, cs) })
	}
}

// BenchmarkConvKernelsBatch sweeps the GEMM forward kernel over batch
// sizes, charting how striping scales with available samples.
func BenchmarkConvKernelsBatch(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		cs := benchShape(n)
		b.Run(fmt.Sprintf("GEMM/b%d", n), func(b *testing.B) { benchRun(b, conv.Forward, conv.AlgoGemm, cs) })
	}
}

// BenchmarkConvInception3x3 measures the Inception module's 3x3 branch
// (inc.b2.conv3x3 at its N=4 out-of-core window: 96 -> 128 channels on
// 28x28, pad 1) — the shape at which ROADMAP "No dead algorithms" (c)
// compares the Winograd kernels with their GEMM twin.
func BenchmarkConvInception3x3(b *testing.B) {
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 4, C: 96, H: 28, W: 28},
		Filt:   tensor.Filter{K: 128, C: 96, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	for _, op := range conv.Ops {
		for _, algo := range []conv.Algo{conv.AlgoGemm, conv.AlgoWinograd, conv.AlgoWinogradNonfused} {
			if !conv.Supported(op, algo, cs) {
				continue // BackwardFilter has no fused Winograd
			}
			b.Run(op.String()+"/"+algo.String(), func(b *testing.B) { benchRun(b, op, algo, cs) })
		}
	}
}

// BenchmarkConvMicroBatch measures the batch-1 GEMM calls that Workspace
// Reuse divides AlexNet's (zoo.AlexNet) kernels into at an 8 MiB budget:
// conv1's filter gradient (3 -> 64 channels, 11x11 stride 4 on 224x224,
// pad 2) and conv2's data gradient (64 -> 192, 5x5 pad 2 on 27x27). At
// N = 1 there is no batch to stripe, so with more than one worker the
// lowering and the product are striped inside the sample.
func BenchmarkConvMicroBatch(b *testing.B) {
	conv1 := tensor.ConvShape{
		In:     tensor.Shape{N: 1, C: 3, H: 224, W: 224},
		Filt:   tensor.Filter{K: 64, C: 3, R: 11, S: 11},
		Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 4, StrideW: 4},
	}
	conv2 := tensor.ConvShape{
		In:     tensor.Shape{N: 1, C: 64, H: 27, W: 27},
		Filt:   tensor.Filter{K: 192, C: 64, R: 5, S: 5},
		Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1},
	}
	b.Run("BackwardFilter/GEMM/b1", func(b *testing.B) { benchRun(b, conv.BackwardFilter, conv.AlgoGemm, conv1) })
	b.Run("BackwardData/GEMM/b1", func(b *testing.B) { benchRun(b, conv.BackwardData, conv.AlgoGemm, conv2) })
}
