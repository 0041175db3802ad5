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
// With minimal set, it returns the single-strip floor, at which runGemm
// splits each sample across the workers instead (gemmLayout).
func gemmWorkspace(op Op, cs tensor.ConvShape, minimal bool) int64 {
	strip := int64(gemmStripFloats(op, cs))
	pack := int64(gemmPackFloats(op, cs))
	if minimal {
		return (pack + strip) * 4
	}
	return (pack + int64(batchStripes(cs.In.N))*strip) * 4
}

// tapRange returns the output positions [lo, hi) of one axis whose input
// coordinate o*stride + off lies inside [0, size), clipped to
// [0, outSize): the positions a filter tap reads from the input rather
// than from padding.
func tapRange(off, stride, size, outSize int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	if last := size - 1 - off; last >= 0 {
		hi = min(last/stride+1, outSize)
	}
	return min(lo, hi), hi
}

// identLowering reports whether cs's im2col lowering is the input sample
// itself: a 1x1 filter at unit stride with no padding, where row c of the
// lowering is plane c of X[n] (dilation moves no tap of a 1x1 filter).
// Forward and BackwardFilter then read B straight from X[n], with leading
// dimension H·W. The rule reads the shape alone.
func identLowering(cs tensor.ConvShape) bool {
	p := cs.Params.Normalized()
	return cs.Filt.R == 1 && cs.Filt.S == 1 && p.StrideH == 1 && p.StrideW == 1 && p.PadH == 0 && p.PadW == 0
}

// im2col lowers rows [rowLo, rowHi) and output pixel columns [pLo, pHi)
// of sample xn's (C*R*S) x (OH*OW) lowering into col, a row-major block
// with leading dimension ld whose (0, 0) is element (rowLo, pLo),
// zero-filling padded positions. Each output row's in-bounds run is one
// segment: a copy at stride 1, a strided gather otherwise.
func im2col(cs tensor.ConvShape, xn, col []float32, ld, rowLo, rowHi, pLo, pHi int) {
	p := cs.Params.Normalized()
	out := cs.OutShape()
	in := cs.In
	f := cs.Filt
	rs := f.R * f.S
	for row := rowLo; row < rowHi; row++ {
		c, r, s := row/rs, row%rs/f.S, row%f.S
		plane := xn[c*in.H*in.W : (c+1)*in.H*in.W]
		dst := col[(row-rowLo)*ld : (row-rowLo)*ld+pHi-pLo]
		off := s*p.DilationW - p.PadW // iw = ow*StrideW + off
		owLo, owHi := tapRange(off, p.StrideW, in.W, out.W)
		for oh := pLo / out.W; oh*out.W < pHi; oh++ {
			base := oh * out.W
			a, b := max(pLo, base)-base, min(pHi, base+out.W)-base
			seg := dst[base+a-pLo : base+b-pLo]
			ih := oh*p.StrideH - p.PadH + r*p.DilationH
			if ih < 0 || ih >= in.H {
				clear(seg)
				continue
			}
			lo := min(max(owLo, a), b)
			hi := max(min(owHi, b), lo)
			clear(seg[:lo-a])
			clear(seg[hi-a:])
			src := plane[ih*in.W : (ih+1)*in.W]
			if p.StrideW == 1 {
				copy(seg[lo-a:hi-a], src[lo+off:hi+off])
				continue
			}
			iw := lo*p.StrideW + off
			for i := lo - a; i < hi-a; i++ {
				seg[i] = src[iw]
				iw += p.StrideW
			}
		}
	}
}

// col2im scatters the rows of channels [cLo, cHi) of col (the gradient
// of the im2col lowering) back into sample xn, accumulating alpha*col on
// top of the existing contents. Each dX element receives its taps in
// (r, s) order; a stride-1 run is one Saxpy.
func col2im(cs tensor.ConvShape, col, xn []float32, alpha float32, cLo, cHi int) {
	p := cs.Params.Normalized()
	out := cs.OutShape()
	in := cs.In
	f := cs.Filt
	pixels := out.H * out.W
	for c := cLo; c < cHi; c++ {
		plane := xn[c*in.H*in.W : (c+1)*in.H*in.W]
		for r := 0; r < f.R; r++ {
			for s := 0; s < f.S; s++ {
				row := (c*f.R+r)*f.S + s
				src := col[row*pixels : (row+1)*pixels]
				off := s*p.DilationW - p.PadW
				owLo, owHi := tapRange(off, p.StrideW, in.W, out.W)
				if owLo >= owHi {
					continue
				}
				for oh := 0; oh < out.H; oh++ {
					ih := oh*p.StrideH - p.PadH + r*p.DilationH
					if ih < 0 || ih >= in.H {
						continue
					}
					dstRow := plane[ih*in.W : (ih+1)*in.W]
					sr := src[oh*out.W : (oh+1)*out.W]
					if p.StrideW == 1 {
						blas.Saxpy(alpha, sr[owLo:owHi], dstRow[owLo+off:owHi+off])
						continue
					}
					iw := owLo*p.StrideW + off
					for ow := owLo; ow < owHi; ow++ {
						dstRow[iw] += float32(alpha * sr[ow])
						iw += p.StrideW
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
	op          Op
	cs          tensor.ConvShape
	x           *tensor.Tensor
	w           *tensor.FilterTensor
	y           *tensor.Tensor
	alpha, beta float32
	ws          []float32 // per-worker strips (packW already carved off)
	packW       []float32 // weights in SGEMM panel layout, shared read-only
	strip       int       // floats per worker strip
	crs, pixels int
	inPlane     int // C·H·W of one input sample, x.Stride apart
	outPlane    int // K·OH·OW of one output sample, y.Stride apart
	k           int
	ident       bool // identLowering(cs): Forward and BackwardFilter read X[n] as the lowering
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

// forward computes Y[n] = alpha * Wmat * im2col(X[n]) + beta*Y[n] for
// samples [n0, n1), output pixel columns [pLo, pHi) only, lowering
// exactly those columns into worker wk's strip (or, for the identity
// lowering, reading them from X[n]) and reusing the per-Run weight pack
// (alpha fused). The SGEMM runs on the calling worker and records its
// own pack/kernel phases.
func (g gemmCtx) forward(wk, n0, n1, pLo, pHi int) {
	col := g.colFor(wk)
	for n := n0; n < n1; n++ {
		xn := g.x.Data[n*g.x.Stride : n*g.x.Stride+g.inPlane]
		b := col[pLo:]
		if g.ident {
			b = xn[pLo:]
		} else {
			t := prof.Enter()
			im2col(g.cs, xn, b, g.pixels, 0, g.crs, pLo, pHi)
			prof.Exit(phGemmIm2col, t)
		}
		blas.SgemmPackedARows(0, g.k, g.packW, false, g.k, pHi-pLo, g.crs,
			b, g.pixels, g.beta,
			g.y.Data[n*g.y.Stride+pLo:n*g.y.Stride+g.outPlane], g.pixels)
	}
}

// backwardData computes dX[n] from dY[n] for samples [n0, n1), input
// channels [cLo, cHi) only: their colGrad rows from the per-Run Wᵀ pack
// into worker wk's strip, then the col2im scatter (alpha applied there)
// onto their beta-scaled planes. cLo*R*S is a multiple of blas.MR.
func (g gemmCtx) backwardData(wk, n0, n1, cLo, cHi int) {
	col := g.colFor(wk)
	rs := g.crs / g.cs.Filt.C
	plane := g.cs.In.H * g.cs.In.W
	for n := n0; n < n1; n++ {
		dy := g.y.Data[n*g.y.Stride : n*g.y.Stride+g.outPlane]
		blas.SgemmPackedARows(cLo*rs, cHi*rs, g.packW, false, g.crs, g.pixels, g.k,
			dy, g.pixels, 0, col, g.pixels)
		t := prof.Enter()
		dx := g.x.Data[n*g.x.Stride+cLo*plane : n*g.x.Stride+cHi*plane]
		if g.beta == 0 {
			clear(dx)
		} else if g.beta != 1 {
			for i := range dx {
				dx[i] *= g.beta
			}
		}
		col2im(g.cs, col, g.x.Data[n*g.x.Stride:n*g.x.Stride+g.inPlane], g.alpha, cLo, cHi)
		prof.Exit(phGemmIm2col, t)
	}
}

// filterPartial computes columns [jLo, jHi) of sample n's raw
// filter-gradient contribution part = dY[n] * im2col(X[n])ᵀ in worker
// wk's strip, unscaled, lowering exactly the col rows those columns
// read. The A operand is the per-sample dY, so there is no shared pack
// here. The lowering runs on the fly: KC output pixels at a time into a
// compact block whose product is accumulated while the block is still
// in cache. The blocks are the SGEMM's own kc blocks (beta = 0 on the
// first, 1 after), so every element sees the same block sums in the
// same order as one SGEMM call over the whole lowering. The identity
// lowering's rows are rows of X[n], read in place.
func (g gemmCtx) filterPartial(wk, n, jLo, jHi int) {
	col := g.colFor(wk)
	xn := g.x.Data[n*g.x.Stride : n*g.x.Stride+g.inPlane]
	dy := g.y.Data[n*g.y.Stride : n*g.y.Stride+g.outPlane]
	part := g.partFor(wk)[jLo:]
	ld := min(blas.KC, g.pixels)
	block := col[jLo*ld : jHi*ld]
	for p0 := 0; p0 < g.pixels; p0 += ld {
		p1 := min(p0+ld, g.pixels)
		b, ldb := block, ld
		if g.ident {
			b, ldb = xn[jLo*g.pixels+p0:], g.pixels
		} else {
			t := prof.Enter()
			im2col(g.cs, xn, block, ld, jLo, jHi, p0, p1)
			prof.Exit(phGemmIm2col, t)
		}
		beta := float32(1)
		if p0 == 0 {
			beta = 0
		}
		blas.SgemmWorkers(1, false, true, g.k, jHi-jLo, p1-p0,
			1, dy[p0:], g.pixels, b, ldb, beta, part, g.crs)
	}
}

// reduce adds alpha times columns [jLo, jHi) of worker wk's partial into
// dW.
func (g gemmCtx) reduce(wk, jLo, jHi int) {
	part := g.partFor(wk)
	t := prof.Enter()
	for o := 0; o < len(part); o += g.crs {
		blas.Saxpy(g.alpha, part[o+jLo:o+jHi], g.w.Data[o+jLo:o+jHi])
	}
	prof.Exit(phGemmReduce, t)
}

// gemmChannelGroup returns the BackwardData split unit: the fewest
// input channels whose colGrad rows (R*S each) fill whole MR-row
// panels, so every channel slice starts on a panel boundary.
func gemmChannelGroup(f tensor.Filter) int {
	return blas.MR / gcd(f.R*f.S, blas.MR)
}

// gemmSplitUnits returns the number of units one sample's work is split
// into when it is striped across workers: NR-wide panels of output
// pixels (Forward) or of CRS columns (BackwardFilter), or channel
// groups (BackwardData).
func gemmSplitUnits(op Op, cs tensor.ConvShape) int {
	out := cs.OutShape()
	f := cs.Filt
	switch op {
	case Forward:
		return ceilDiv(out.H*out.W, blas.NR)
	case BackwardData:
		return ceilDiv(f.C, gemmChannelGroup(f))
	}
	return ceilDiv(f.C*f.R*f.S, blas.NR)
}

// gemmSampleWorkers is blas's small-product rule on one sample's
// product: the widest split of a sample, before the cap by its units.
func gemmSampleWorkers(cs tensor.ConvShape) int {
	out := cs.OutShape()
	f := cs.Filt
	return blas.AutoWorkers(int64(f.K) * int64(f.C*f.R*f.S) * int64(out.H*out.W))
}

// gemmLayout returns how runGemm spreads a call over the workers, given
// wsFloats of workspace: batch > 1 strips take whole samples, when the
// batch fills every worker or when splitting a sample would use no more
// workers than striping the batch does. Otherwise — fewer samples than
// workers, or one strip — that strip serves every sample and each
// sample is split across split workers (split <= 1 is the serial walk).
// The rule reads only the shape, the worker cap and the workspace.
func gemmLayout(op Op, cs tensor.ConvShape, wsFloats int) (batch, split int) {
	batch = fitStripes(batchStripes(cs.In.N), wsFloats-gemmPackFloats(op, cs), gemmStripFloats(op, cs))
	split = min(gemmSampleWorkers(cs), gemmSplitUnits(op, cs))
	if batch > 1 && (cs.In.N >= MaxWorkers() || split <= batch) {
		return batch, 0
	}
	return 0, split
}

// span runs units [lo, hi) of every sample in strip 0: the lowering, the
// product and (BackwardFilter) the reduction of one disjoint slice of
// each sample's output, the samples in ascending order, on the calling
// worker. As a fork body its first argument, the worker index, is
// unused: strip 0 holds the lowering of every slice, which are disjoint.
func (g gemmCtx) span(_, lo, hi int) {
	if lo >= hi {
		return
	}
	n := g.cs.In.N
	switch g.op {
	case Forward:
		g.forward(0, 0, n, lo*blas.NR, min(hi*blas.NR, g.pixels))
	case BackwardData:
		grp := gemmChannelGroup(g.cs.Filt)
		g.backwardData(0, 0, n, lo*grp, min(hi*grp, g.cs.Filt.C))
	case BackwardFilter:
		jLo, jHi := lo*blas.NR, min(hi*blas.NR, g.crs)
		for i := 0; i < n; i++ {
			g.filterPartial(0, i, jLo, jHi)
			g.reduce(0, jLo, jHi)
		}
	}
}

// runGemm executes the explicit im2col + SGEMM algorithm, spread over
// the workers as gemmLayout says: whole samples per strip, or each
// sample split across the workers in one launch, where the worker that
// multiplies a slice of a sample's output also lowers and
// (BackwardFilter) reduces it, so no core waits on a serial lowering.
func runGemm(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32) {
	out := cs.OutShape()
	in := cs.In
	f := cs.Filt
	pack := gemmPackFloats(op, cs)
	g := gemmCtx{
		op: op, cs: cs, x: x, w: w, y: y, alpha: alpha, beta: beta,
		packW: ws[:pack], ws: ws[pack:],
		strip:   gemmStripFloats(op, cs),
		crs:     f.C * f.R * f.S,
		pixels:  out.H * out.W,
		inPlane: in.C * in.H * in.W, outPlane: out.C * out.H * out.W,
		k: f.K, ident: identLowering(cs),
	}
	// Pack the weights once per Run: Forward multiplies Wmat (alpha
	// fused into the pack), BackwardData multiplies Wmatᵀ (alpha stays
	// out, applied in the col2im scatter).
	switch op {
	case Forward:
		blas.PackA(g.packW, false, g.k, g.crs, alpha, w.Data, g.crs)
	case BackwardData:
		blas.PackA(g.packW, true, g.crs, g.k, 1, w.Data, g.crs)
	case BackwardFilter:
		// dW = beta*dW + alpha * sum_n dY[n] * colᵀ, every dW element
		// receiving the per-sample contributions one at a time in
		// ascending n (see the reductions below).
		if beta == 0 {
			w.Zero()
		} else if beta != 1 {
			for i := range w.Data {
				w.Data[i] *= beta
			}
		}
	}
	switch batch, split := gemmLayout(op, cs, len(ws)); {
	case batch > 1:
		g.runBatch(batch)
	case split > 1:
		// Column and channel slices are disjoint in the strip and in the
		// output, and each element keeps its k-order chain, (r, s) tap
		// order and ascending-sample reduction, so the split is
		// bit-identical to the serial walk. (The method value is the
		// launch's one copy of g.)
		blas.Fork(split, gemmSplitUnits(op, cs), g.span)
	default:
		g.span(0, 0, gemmSplitUnits(op, cs))
	}
}

// runBatch stripes the batch across workers strips, one sample per
// worker at a time, each sample's SGEMM serial.
func (g gemmCtx) runBatch(workers int) {
	n := g.cs.In.N
	switch g.op {
	case Forward:
		blas.Fork(workers, n, func(wk, lo, hi int) { g.forward(wk, lo, hi, 0, g.pixels) })
	case BackwardData:
		blas.Fork(workers, n, func(wk, lo, hi int) { g.backwardData(wk, lo, hi, 0, g.cs.Filt.C) })
	case BackwardFilter:
		// Per-sample partial buffers are computed in parallel rounds of
		// `workers` samples and reduced serially in ascending n order, so
		// every dW element sees the per-sample contributions added one at
		// a time in batch order — bit-identical at every worker count, and
		// equal bit for bit to a micro-batched beta=1 accumulation over
		// the same samples (§II).
		for n0 := 0; n0 < n; n0 += workers {
			cnt := min(workers, n-n0)
			blas.Fork(cnt, cnt, func(wk, lo, hi int) {
				for i := lo; i < hi; i++ {
					g.filterPartial(wk, n0+i, 0, g.crs)
				}
			})
			for i := 0; i < cnt; i++ {
				g.reduce(i, 0, g.crs)
			}
		}
	}
}
