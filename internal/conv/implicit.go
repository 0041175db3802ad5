package conv

import (
	"ucudnn/internal/blas"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

// IMPLICIT_GEMM and IMPLICIT_PRECOMP_GEMM run the convolution as SGEMM
// without ever materializing the lowered matrix (the cuDNN paper's
// formulation): the GotoBLAS loop nest of blas's sgemmRows, with the
// B-panel packer fed straight from the tensor. Per sample n the three ops
// are
//
//	Forward:        Y[n]  (K x OH·OW)  = alpha·W (K x CRS) · im2col(X[n]) (CRS x OH·OW)
//	BackwardData:   dX[n] (C x H·W)    = alpha·Wᵀ (C x KRS) · gather(dY[n]) (KRS x H·W)
//	BackwardFilter: dW    (K x CRS)   += alpha·dY[n] (K x OH·OW) · im2col(X[n])ᵀ (OH·OW x CRS)
//
// where im2col is GEMM's own lowering (gemm.go: the segment runs of
// tapRange), written NR rows at a time, or X[n] itself where
// identLowering holds; and gather(dY[n])[(k,r,s)][(ih,iw)] is
// dY[n][k][oh][ow] at the output pixel whose tap (r,s) reads input pixel
// (ih,iw), and zero when there is none (off-stride or out of range) — so
// dX is stored straight from the micro-kernel with no col2im scatter.
// Strided BackwardData therefore multiplies 1 - 1/(strideH·strideW) zero
// lanes.
//
// The only scratch is the pack blocks of the loop nest, which live on the
// worker's stack exactly as in sgemmRows, so IMPLICIT_GEMM keeps its zero
// workspace. PRECOMP is the same kernel: its workspace is the size of
// cuDNN's index table, which plans reserve and nothing here reads.
//
// Forward uses the same k order, kc split and alpha-fused weight pack as
// AlgoGemm, so the two are bit-identical. BackwardFilter adds each
// sample's k-blocks into dW in ascending n, so a micro-batched beta=1
// accumulation repeats the undivided run's chain bit for bit. Work is
// split over (sample, column-block) units; a C element's chain never
// depends on who computes its block, so results are bit-identical at
// every worker count.

// implicitSmallPack is the pack-block size (in float32s, each) up to
// which runUnits uses small stack blocks, so that a toy problem does not
// pay for clearing 180 KiB.
const implicitSmallPack = 2048

// implicitCtx carries the kernel state. Methods use a value receiver so
// the serial path runs as plain calls with no closures (see gemmCtx).
type implicitCtx struct {
	op          Op
	cs          tensor.ConvShape
	p           tensor.ConvParams // normalized
	in, out     tensor.Shape
	f           tensor.Filter
	x, w, y     []float32
	xs, ys      int // the strides from one sample to the next of x and y
	alpha, beta float32
	ident       bool // identLowering(cs): B is read from X[n] itself

	m, n, k int       // one sample's product: C (m x n) += A (m x k) · B (k x n)
	c       []float32 // the tensor C lives in
	cStride int       // floats from one sample's C to the next (0: one shared C)
	jw      int       // column block width: a multiple of blas.NR, at most blas.NC
	jblocks int       // column blocks per sample
}

// runImplicit executes IMPLICIT_GEMM, and IMPLICIT_PRECOMP_GEMM's
// Forward, which is the same kernel.
func runImplicit(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32) {
	g := implicitCtx{
		op: op, cs: cs, p: cs.Params.Normalized(), in: cs.In, out: cs.OutShape(), f: cs.Filt,
		x: x.Data, w: w.Data, y: y.Data, xs: x.Stride, ys: y.Stride,
		alpha: alpha, beta: beta, ident: identLowering(cs),
	}
	crs := g.f.C * g.f.R * g.f.S
	pixels := g.out.H * g.out.W
	groups := g.in.N
	switch op {
	case Forward:
		g.m, g.n, g.k, g.c = g.f.K, pixels, crs, g.y
		g.cStride = g.ys
	case BackwardData:
		g.m, g.n, g.k, g.c = g.f.C, g.in.H*g.in.W, g.f.K*g.f.R*g.f.S, g.x
		g.cStride = g.xs
	case BackwardFilter:
		// Every unit reduces over the whole batch in order, into one dW.
		g.m, g.n, g.k, g.c = g.f.K, crs, pixels, g.w
		groups = 1
	}
	// Forking costs more than a small product repays (blas's rule).
	workers := blas.AutoWorkers(int64(g.in.N) * int64(g.m) * int64(g.n) * int64(g.k))
	// Even-width column blocks, in a count the workers divide: how the
	// columns are cut never shows in the result.
	blocks := ceilDiv(g.n, blas.NC)
	for (groups*blocks)%workers != 0 && blocks < ceilDiv(g.n, blas.NR) {
		blocks++
	}
	g.jw = ceilDiv(ceilDiv(g.n, blocks), blas.NR) * blas.NR
	g.jblocks = ceilDiv(g.n, g.jw)
	units := groups * g.jblocks
	// The serial case is a plain call, so steady-state execution
	// allocates nothing.
	if min(workers, units) <= 1 {
		g.runUnits(0, 0, units)
		return
	}
	// The method value is the launch's one copy of g.
	blas.Fork(workers, units, g.runUnits)
}

// precompWorkspace returns the bytes IMPLICIT_PRECOMP_GEMM reserves: the
// size of cuDNN's precomputed gather-index table, one 4-byte offset per
// im2col matrix entry. The device model plans cuDNN's PRECOMP, which
// needs it, so plans keep this size; the kernel here runs IMPLICIT_GEMM's
// lowering and reads none of it.
func precompWorkspace(cs tensor.ConvShape) int64 {
	out := cs.OutShape()
	return int64(cs.Filt.C) * int64(cs.Filt.R) * int64(cs.Filt.S) *
		int64(out.H) * int64(out.W) * 4
}

// runUnits computes units [lo, hi) with pack blocks on this stack: they
// are declared once per worker chunk, and no slice of them may reach an
// interface or a go closure. low holds NR lowered rows on their way into
// packB. As a fork body its first argument, the worker index, is unused.
func (g implicitCtx) runUnits(_, lo, hi int) {
	// One continuous Enter/Next chain, as in sgemmRows; it opens before
	// the pack blocks so that clearing them counts as packing.
	t := prof.Enter()
	rows := ceilDiv(min(blas.MC, g.m), blas.MR) * blas.MR // of the largest A block
	if min(blas.KC, g.k)*max(rows, g.jw) <= implicitSmallPack {
		var packA, packB, low [implicitSmallPack]float32
		g.units(packA[:], packB[:], low[:], lo, hi, t)
		return
	}
	var packA [blas.MC * blas.KC]float32
	var packB [blas.KC * blas.NC]float32
	var low [blas.NR * blas.KC]float32
	g.units(packA[:], packB[:], low[:], lo, hi, t)
}

// units walks units [lo, hi). Forward and BackwardData units are (sample,
// column block) pairs; a BackwardFilter unit is one column block of dW
// reduced over the batch in ascending n.
func (g implicitCtx) units(packA, packB, low []float32, lo, hi int, t int64) {
	for u := lo; u < hi; u++ {
		if g.op == BackwardFilter {
			for n := 0; n < g.in.N; n++ {
				t = g.block(packA, packB, low, n, u*g.jw, n == 0, t)
			}
			continue
		}
		t = g.block(packA, packB, low, u/g.jblocks, (u%g.jblocks)*g.jw, true, t)
	}
}

// block runs sample n's product for the C columns [j0, j0+jw): the kc/mc
// loops of sgemmRows with lowering packers. fresh says C has not been
// written yet, so the first k-block's store fuses beta.
func (g implicitCtx) block(packA, packB, low []float32, n, j0 int, fresh bool, t int64) int64 {
	jb := min(g.jw, g.n-j0)
	c := g.c[n*g.cStride:]
	for k0 := 0; k0 < g.k; k0 += blas.KC {
		kb := min(blas.KC, g.k-k0)
		g.packB(packB, low, n, k0, kb, j0, jb)
		t = prof.Next(phImplicitPack, t)
		first := fresh && k0 == 0
		for i0 := 0; i0 < g.m; i0 += blas.MC {
			ib := min(blas.MC, g.m-i0)
			g.packA(packA, n, i0, ib, k0, kb)
			t = prof.Next(phImplicitPack, t)
			blas.KernelBlock(packA, packB, ib, jb, kb, first, g.beta, c, i0*g.n+j0, g.n)
			t = prof.Next(blas.KindSgemmKernel, t)
		}
	}
	return t
}

// packA packs alpha·A[i0:i0+ib, k0:k0+kb] into MR-row panels.
func (g implicitCtx) packA(pack []float32, n, i0, ib, k0, kb int) {
	switch g.op {
	case Forward:
		blas.PackAPanels(pack, false, g.w, g.k, i0, ib, k0, kb, g.alpha)
	case BackwardFilter:
		blas.PackAPanels(pack, false, g.y[n*g.ys:n*g.ys+g.m*g.k], g.k, i0, ib, k0, kb, g.alpha)
	case BackwardData:
		g.packWT(pack, i0, ib, k0, kb)
	}
}

// packWT packs BackwardData's A operand: row c, column (k, r, s) of Wᵀ is
// W[k][c][r][s].
func (g implicitCtx) packWT(pack []float32, i0, ib, k0, kb int) {
	rs := g.f.R * g.f.S
	crs := g.f.C * rs
	for it := 0; it < ib; it += blas.MR {
		dst := pack[(it/blas.MR)*(kb*blas.MR):]
		iw := min(blas.MR, ib-it)
		for i := 0; i < blas.MR; i++ {
			if i >= iw {
				for p := 0; p < kb; p++ {
					dst[p*blas.MR+i] = 0
				}
				continue
			}
			src := (k0/rs)*crs + (i0+it+i)*rs // W[k][c][0][0]
			tap := k0 % rs
			for p := 0; p < kb; p++ {
				dst[p*blas.MR+i] = g.alpha * g.w[src+tap]
				if tap++; tap == rs {
					tap = 0
					src += crs
				}
			}
		}
	}
}

// packB packs B[k0:k0+kb, j0:j0+jb] of sample n into NR-column panels
// stored [kb][NR], zero-padded past jb. Where the lowering is the
// identity, B is X[n] (Forward) or X[n]ᵀ (BackwardFilter) and its panels
// are packed from the tensor itself. Otherwise im2col lowers NR tap rows
// at a time into low, whose rows Forward stores as panel rows and
// BackwardFilter packs transposed; BackwardData gathers each gradient row
// into one L1-resident line stored as a panel row.
func (g implicitCtx) packB(pack, low []float32, n, k0, kb, j0, jb int) {
	xn := g.x[n*g.xs : n*g.xs+g.in.C*g.in.H*g.in.W]
	switch {
	case g.op == BackwardData:
		var line [blas.NC]float32
		dyn := g.y[n*g.ys : n*g.ys+g.out.C*g.out.H*g.out.W]
		for p := 0; p < kb; p++ {
			g.gradLine(line[:jb], dyn, k0+p, j0)
			storeRow(pack, line[:], p, kb, jb)
		}
	case g.ident:
		blas.PackBPanels(pack, g.op == BackwardFilter, xn, g.in.H*g.in.W, k0, kb, j0, jb)
	case g.op == Forward:
		// Rows of whole panels: room for storeRow's zero tail.
		ld := ceilDiv(jb, blas.NR) * blas.NR
		for p0 := 0; p0 < kb; p0 += blas.NR {
			rows := min(blas.NR, kb-p0)
			im2col(g.cs, xn, low, ld, k0+p0, k0+p0+rows, j0, j0+jb)
			for i := 0; i < rows; i++ {
				storeRow(pack, low[i*ld:(i+1)*ld], p0+i, kb, jb)
			}
		}
	default:
		// BackwardFilter: panel column j is im2col row j0+j over the
		// pixels [k0, k0+kb).
		for jt := 0; jt < jb; jt += blas.NR {
			jw := min(blas.NR, jb-jt)
			im2col(g.cs, xn, low, kb, j0+jt, j0+jt+jw, k0, k0+kb)
			blas.PackBPanels(pack[(jt/blas.NR)*(kb*blas.NR):], true, low, kb, 0, kb, 0, jw)
		}
	}
}

// storeRow writes line[:jb] as row p of the NR-column panels, zero-padding
// the last panel.
func storeRow(pack, line []float32, p, kb, jb int) {
	clear(line[jb : ceilDiv(jb, blas.NR)*blas.NR])
	for jt := 0; jt < jb; jt += blas.NR {
		blas.CopyPanelRow((*[blas.NR]float32)(pack[(jt/blas.NR)*(kb*blas.NR)+p*blas.NR:]), (*[blas.NR]float32)(line[jt:]))
	}
}

// gatherSeg writes one row segment of a gradient line: element j reads
// src[pos] when rem == 0 and pos is in range, else zero; then rem counts
// up to period, where it wraps and pos advances by one, so each src
// element is visited once per stride. Unit stride is a clipped copy.
func gatherSeg(seg, src []float32, pos, rem, period int) {
	if period == 1 {
		lo := min(max(-pos, 0), len(seg))
		hi := min(max(len(src)-pos, lo), len(seg))
		clear(seg[:lo])
		if lo < hi {
			copy(seg[lo:hi], src[pos+lo:])
		}
		clear(seg[hi:])
		return
	}
	for j := range seg {
		var v float32
		if rem == 0 && uint(pos) < uint(len(src)) {
			v = src[pos]
		}
		seg[j] = v
		if rem++; rem == period {
			rem = 0
			pos++
		}
	}
}

// gradLine writes gather(dyn)[row][q0 : q0+len(line)]: for tap row =
// (k, r, s) and consecutive input pixels (ih, iw), the output gradient at
// (ih+pad-r·dil)/stride when that is an in-range whole number, else zero.
func (g implicitCtx) gradLine(line, dyn []float32, row, q0 int) {
	rs := g.f.R * g.f.S
	k, r, s := row/rs, (row/g.f.S)%g.f.R, row%g.f.S
	plane := dyn[k*g.out.H*g.out.W : (k+1)*g.out.H*g.out.W]
	ih, iw := q0/g.in.W, q0%g.in.W
	for i := 0; i < len(line); ih, iw = ih+1, 0 {
		seg := line[i:min(len(line), i+g.in.W-iw)]
		i += len(seg)
		oh, rem := floorDivMod(ih+g.p.PadH-r*g.p.DilationH, g.p.StrideH)
		if rem != 0 || uint(oh) >= uint(g.out.H) {
			clear(seg)
			continue
		}
		ow, rem := floorDivMod(iw+g.p.PadW-s*g.p.DilationW, g.p.StrideW)
		gatherSeg(seg, plane[oh*g.out.W:(oh+1)*g.out.W], ow, rem, g.p.StrideW)
	}
}

// floorDivMod returns floor(a/b) and the non-negative remainder, b > 0.
func floorDivMod(a, b int) (int, int) {
	q, r := a/b, a%b
	if r < 0 {
		q--
		r += b
	}
	return q, r
}
