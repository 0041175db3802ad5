package conv

import (
	"ucudnn/internal/blas"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

// gemmStripFloats returns the float32 elements of one worker's workspace
// strip: the per-sample im2col lowering buffer of (C*R*S) x (OH*OW), plus
// for BackwardFilter a per-sample partial dW buffer of K x (C*R*S) that
// the deterministic reduction consumes.
func gemmStripFloats(op Op, cs tensor.ConvShape) int {
	out := cs.OutShape()
	crs := cs.Filt.C * cs.Filt.R * cs.Filt.S
	strip := crs * out.H * out.W
	if op == BackwardFilter {
		strip += cs.Filt.K * crs
	}
	return strip
}

// gemmPackFloats returns the float32 elements of the packed weight
// region at the front of the workspace. Forward and BackwardData
// multiply the same weight matrix against every sample, so the weights
// are packed into SGEMM panel layout once per Run and reused across the
// whole batch; BackwardFilter's A operand is the per-sample dY, so it
// has no shared pack.
func gemmPackFloats(op Op, cs tensor.ConvShape) int {
	crs := cs.Filt.C * cs.Filt.R * cs.Filt.S
	switch op {
	case Forward:
		return blas.PackAFloats(cs.Filt.K, crs)
	case BackwardData:
		return blas.PackAFloats(crs, cs.Filt.K)
	}
	return 0
}

// gemmWorkspace returns the scratch bytes for the explicit-GEMM
// algorithm: the shared packed-weight region plus one workspace strip
// per engine worker (min(MaxWorkers, N)), so the batch can be striped
// across workers with each worker owning a disjoint lowering buffer.
// With minimal set, it returns the single-strip floor at which runGemm
// degrades to the serial batch walk.
func gemmWorkspace(op Op, cs tensor.ConvShape, minimal bool) int64 {
	strip := int64(gemmStripFloats(op, cs))
	pack := int64(gemmPackFloats(op, cs))
	if minimal {
		return (pack + strip) * 4
	}
	return (pack + int64(batchStripes(cs.In.N))*strip) * 4
}

// im2col lowers sample xn (C x H x W, sample-local) into col, a
// (C*R*S) x (OH*OW) row-major matrix, zero-filling padded positions.
func im2col(cs tensor.ConvShape, xn []float32, col []float32) {
	p := cs.Params.Normalized()
	out := cs.OutShape()
	in := cs.In
	f := cs.Filt
	pixels := out.H * out.W
	row := 0
	for c := 0; c < f.C; c++ {
		plane := xn[c*in.H*in.W : (c+1)*in.H*in.W]
		for r := 0; r < f.R; r++ {
			for s := 0; s < f.S; s++ {
				dst := col[row*pixels : (row+1)*pixels]
				row++
				i := 0
				for oh := 0; oh < out.H; oh++ {
					ih := oh*p.StrideH - p.PadH + r*p.DilationH
					if ih < 0 || ih >= in.H {
						for ow := 0; ow < out.W; ow++ {
							dst[i] = 0
							i++
						}
						continue
					}
					src := plane[ih*in.W : (ih+1)*in.W]
					for ow := 0; ow < out.W; ow++ {
						iw := ow*p.StrideW - p.PadW + s*p.DilationW
						if iw < 0 || iw >= in.W {
							dst[i] = 0
						} else {
							dst[i] = src[iw]
						}
						i++
					}
				}
			}
		}
	}
}

// col2im scatters col (the gradient of the im2col lowering) back into
// sample xn, accumulating alpha*col on top of the existing contents.
func col2im(cs tensor.ConvShape, col []float32, xn []float32, alpha float32) {
	p := cs.Params.Normalized()
	out := cs.OutShape()
	in := cs.In
	f := cs.Filt
	pixels := out.H * out.W
	row := 0
	for c := 0; c < f.C; c++ {
		plane := xn[c*in.H*in.W : (c+1)*in.H*in.W]
		for r := 0; r < f.R; r++ {
			for s := 0; s < f.S; s++ {
				src := col[row*pixels : (row+1)*pixels]
				row++
				i := 0
				for oh := 0; oh < out.H; oh++ {
					ih := oh*p.StrideH - p.PadH + r*p.DilationH
					if ih < 0 || ih >= in.H {
						i += out.W
						continue
					}
					dstRow := plane[ih*in.W : (ih+1)*in.W]
					for ow := 0; ow < out.W; ow++ {
						iw := ow*p.StrideW - p.PadW + s*p.DilationW
						if iw >= 0 && iw < in.W {
							dstRow[iw] += alpha * src[i]
						}
						i++
					}
				}
			}
		}
	}
}

// gemmCtx carries the explicit-GEMM kernel state. Methods use a value
// receiver so the serial path runs as plain calls with no closures — the
// property behind the engine's zero-allocation steady state.
type gemmCtx struct {
	cs          tensor.ConvShape
	x           *tensor.Tensor
	w           *tensor.FilterTensor
	y           *tensor.Tensor
	alpha, beta float32
	ws          []float32 // per-worker strips (packW already carved off)
	packW       []float32 // weights in SGEMM panel layout, shared read-only
	strip       int       // floats per worker strip
	crs, pixels int
	inPlane     int
	outPlane    int
	k           int
}

// colFor returns worker wk's im2col buffer.
func (g gemmCtx) colFor(wk int) []float32 {
	return g.ws[wk*g.strip : wk*g.strip+g.crs*g.pixels]
}

// partFor returns worker wk's partial-dW buffer (BackwardFilter strips
// only).
func (g gemmCtx) partFor(wk int) []float32 {
	off := wk*g.strip + g.crs*g.pixels
	return g.ws[off : off+g.k*g.crs]
}

// forwardSample computes Y[n] = alpha * Wmat * im2col(X[n]) + beta*Y[n]
// in worker wk's strip, reusing the per-Run weight pack (alpha fused).
// sgemmWorkers caps the inner GEMM's parallelism. The SGEMM records its
// own pack/kernel phases.
func (g gemmCtx) forwardSample(wk, n, sgemmWorkers int) {
	col := g.colFor(wk)
	t := prof.Enter()
	im2col(g.cs, g.x.Data[n*g.inPlane:(n+1)*g.inPlane], col)
	prof.Exit(phGemmIm2col, t)
	blas.SgemmPackedA(sgemmWorkers, g.packW, false, g.k, g.pixels, g.crs,
		col, g.pixels, g.beta,
		g.y.Data[n*g.outPlane:(n+1)*g.outPlane], g.pixels)
}

// backwardDataSample computes dX[n] from dY[n] in worker wk's strip,
// reusing the per-Run Wᵀ pack (alpha applied in the col2im scatter).
func (g gemmCtx) backwardDataSample(wk, n, sgemmWorkers int) {
	col := g.colFor(wk)
	blas.SgemmPackedA(sgemmWorkers, g.packW, false, g.crs, g.pixels, g.k,
		g.y.Data[n*g.outPlane:(n+1)*g.outPlane], g.pixels, 0,
		col, g.pixels)
	t := prof.Enter()
	dx := g.x.Data[n*g.inPlane : (n+1)*g.inPlane]
	if g.beta == 0 {
		for i := range dx {
			dx[i] = 0
		}
	} else if g.beta != 1 {
		for i := range dx {
			dx[i] *= g.beta
		}
	}
	col2im(g.cs, col, dx, g.alpha)
	prof.Exit(phGemmIm2col, t)
}

// filterPartial computes strip wk's raw per-sample filter-gradient
// contribution: part = dY[n] * im2col(X[n])ᵀ, unscaled, beta=0. The A
// operand is the per-sample dY, so there is no shared pack here.
func (g gemmCtx) filterPartial(wk, n, sgemmWorkers int) {
	col := g.colFor(wk)
	t := prof.Enter()
	im2col(g.cs, g.x.Data[n*g.inPlane:(n+1)*g.inPlane], col)
	prof.Exit(phGemmIm2col, t)
	blas.SgemmWorkers(sgemmWorkers, false, true, g.k, g.crs, g.pixels,
		1, g.y.Data[n*g.outPlane:(n+1)*g.outPlane], g.pixels, col, g.pixels, 0,
		g.partFor(wk), g.crs)
}

// runGemm executes the explicit im2col + SGEMM algorithm, striping the
// batch across as many workspace strips as the granted workspace holds
// (at most one per engine worker). With a single strip, the batch is
// walked serially and the inner SGEMM re-parallelized instead.
func runGemm(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32) {
	out := cs.OutShape()
	in := cs.In
	f := cs.Filt
	pack := gemmPackFloats(op, cs)
	g := gemmCtx{
		cs: cs, x: x, w: w, y: y, alpha: alpha, beta: beta,
		packW: ws[:pack], ws: ws[pack:],
		strip:   gemmStripFloats(op, cs),
		crs:     f.C * f.R * f.S,
		pixels:  out.H * out.W,
		inPlane: in.C * in.H * in.W, outPlane: out.C * out.H * out.W,
		k: f.K,
	}
	// Pack the weights once per Run: Forward multiplies Wmat (alpha
	// fused into the pack), BackwardData multiplies Wmatᵀ (alpha stays
	// out, applied in the col2im scatter).
	switch op {
	case Forward:
		blas.PackA(g.packW, false, g.k, g.crs, alpha, w.Data, g.crs)
	case BackwardData:
		blas.PackA(g.packW, true, g.crs, g.k, 1, w.Data, g.crs)
	}
	workers := fitStripes(batchStripes(in.N), len(g.ws), g.strip)

	switch op {
	case Forward:
		// Y[n] (K x pixels) = alpha * Wmat (K x CRS) * col + beta * Y[n].
		if workers <= 1 {
			for n := 0; n < in.N; n++ {
				g.forwardSample(0, n, 0)
			}
			return
		}
		// Copy g so only the copy is captured (and heap-allocated) by the
		// escaping closure; the serial path above keeps g on the stack.
		gc := g
		fork(workers, in.N, func(wk, lo, hi int) {
			for n := lo; n < hi; n++ {
				gc.forwardSample(wk, n, 1)
			}
		})
	case BackwardData:
		// colGrad = Wmatᵀ (CRS x K) * dY[n] (K x pixels); scatter via col2im.
		if workers <= 1 {
			for n := 0; n < in.N; n++ {
				g.backwardDataSample(0, n, 0)
			}
			return
		}
		gc := g
		fork(workers, in.N, func(wk, lo, hi int) {
			for n := lo; n < hi; n++ {
				gc.backwardDataSample(wk, n, 1)
			}
		})
	case BackwardFilter:
		// dW = beta*dW + alpha * sum_n dY[n] * colᵀ. Per-sample partial
		// buffers are computed in parallel rounds of `workers` samples and
		// reduced serially in ascending n order, so every dW element sees
		// the per-sample contributions added one at a time in batch order —
		// bit-identical at every worker count, and equal bit for bit to a
		// micro-batched beta=1 accumulation over the same samples (§II).
		if beta == 0 {
			w.Zero()
		} else if beta != 1 {
			for i := range w.Data {
				w.Data[i] *= beta
			}
		}
		if workers <= 1 {
			for n := 0; n < in.N; n++ {
				g.filterPartial(0, n, 0)
				t := prof.Enter()
				blas.Saxpy(alpha, g.partFor(0), w.Data)
				prof.Exit(phGemmReduce, t)
			}
			return
		}
		gc := g
		for n0 := 0; n0 < in.N; n0 += workers {
			cnt := imin(workers, in.N-n0)
			base := n0
			fork(cnt, cnt, func(wk, lo, hi int) {
				for i := lo; i < hi; i++ {
					gc.filterPartial(wk, base+i, 1)
				}
			})
			t := prof.Enter()
			for i := 0; i < cnt; i++ {
				blas.Saxpy(alpha, gc.partFor(i), w.Data)
			}
			prof.Exit(phGemmReduce, t)
		}
	}
}
