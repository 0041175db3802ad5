package conv

import (
	"math"

	"ucudnn/internal/blas"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

// IMPLICIT_GEMM and IMPLICIT_PRECOMP_GEMM run the convolution as SGEMM
// without ever materializing the lowered matrix (the cuDNN paper's
// formulation): the GotoBLAS loop nest of blas's sgemmRows, with the
// B-panel packer replaced by a gather straight from the tensor. Per
// sample n the three ops are
//
//	Forward:        Y[n]  (K x OH·OW)  = alpha·W (K x CRS) · im2col(X[n]) (CRS x OH·OW)
//	BackwardData:   dX[n] (C x H·W)    = alpha·Wᵀ (C x KRS) · gather(dY[n]) (KRS x H·W)
//	BackwardFilter: dW    (K x CRS)   += alpha·dY[n] (K x OH·OW) · im2col(X[n])ᵀ (OH·OW x CRS)
//
// where gather(dY[n])[(k,r,s)][(ih,iw)] is dY[n][k][oh][ow] at the output
// pixel whose tap (r,s) reads input pixel (ih,iw), and zero when there is
// none (off-stride or out of range) — so dX is stored straight from the
// micro-kernel with no col2im scatter. Strided BackwardData therefore
// multiplies 1 - 1/(strideH·strideW) zero lanes.
//
// The only scratch is the two pack blocks of the loop nest, which live on
// the worker's stack exactly as in sgemmRows, so IMPLICIT_GEMM keeps its
// zero workspace; PRECOMP's workspace is the gather-index table its
// packer reads instead of recomputing bounds.
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
// pay for clearing 168 KiB.
const implicitSmallPack = 2048

// implicitCtx carries the kernel state. Methods use a value receiver so
// the serial path runs as plain calls with no closures (see gemmCtx).
type implicitCtx struct {
	op          Op
	p           tensor.ConvParams // normalized
	in, out     tensor.Shape
	f           tensor.Filter
	x, w, y     []float32
	alpha, beta float32
	table       []float32 // PRECOMP gather index (int32 bits), else nil

	m, n, k int       // one sample's product: C (m x n) += A (m x k) · B (k x n)
	c       []float32 // the tensor C lives in
	cStride int       // floats from one sample's C to the next (0: one shared C)
	jw      int       // column block width: a multiple of blas.NR, at most blas.NC
	jblocks int       // column blocks per sample
}

// runImplicit executes IMPLICIT_GEMM (table == nil) or the Forward-only
// IMPLICIT_PRECOMP_GEMM (table = the workspace's index table).
func runImplicit(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, table []float32) {
	g := implicitCtx{
		op: op, p: cs.Params.Normalized(), in: cs.In, out: cs.OutShape(), f: cs.Filt,
		x: x.Data, w: w.Data, y: y.Data, alpha: alpha, beta: beta,
	}
	crs := g.f.C * g.f.R * g.f.S
	pixels := g.out.H * g.out.W
	groups := g.in.N
	switch op {
	case Forward:
		g.m, g.n, g.k, g.c = g.f.K, pixels, crs, g.y
		g.cStride = g.m * g.n
	case BackwardData:
		g.m, g.n, g.k, g.c = g.f.C, g.in.H*g.in.W, g.f.K*g.f.R*g.f.S, g.x
		g.cStride = g.m * g.n
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
	if table != nil {
		g.table = table[:crs*pixels]
		g.fork(workers, true, crs)
	}
	g.fork(workers, false, units)
}

// fork splits [0, n) into one contiguous chunk per worker; the serial
// case is a plain call so steady-state execution allocates nothing.
func (g implicitCtx) fork(workers int, table bool, n int) {
	if imin(workers, n) <= 1 {
		g.chunk(table, 0, n)
		return
	}
	// Copy g so only the copy is captured (and heap-allocated) by the
	// escaping closure.
	gc := g
	fork(workers, n, func(_, lo, hi int) { gc.chunk(table, lo, hi) })
}

//ucudnn:hotpath
func (g implicitCtx) chunk(table bool, lo, hi int) {
	if table {
		g.buildTable(lo, hi)
	} else {
		g.runUnits(lo, hi)
	}
}

// precompWorkspace returns the bytes of the precomputed gather-index
// table: one sample-local offset (or -1 for a padded position) per im2col
// matrix entry.
func precompWorkspace(cs tensor.ConvShape) int64 {
	out := cs.OutShape()
	return int64(cs.Filt.C) * int64(cs.Filt.R) * int64(cs.Filt.S) *
		int64(out.H) * int64(out.W) * 4
}

// buildTable fills rows [lo, hi) of the index table, one row per (c, r, s)
// filter tap: the offsets are shared by every sample, so they are computed
// once per Run. Entries are int32 bit patterns stored in the float32
// workspace.
//
//ucudnn:hotpath
func (g implicitCtx) buildTable(lo, hi int) {
	t := prof.Enter()
	pixels := g.out.H * g.out.W
	for j := lo; j < hi; j++ {
		c := j / (g.f.R * g.f.S)
		r := (j / g.f.S) % g.f.R
		s := j % g.f.S
		trow := g.table[j*pixels : (j+1)*pixels]
		ti := 0
		for oh := 0; oh < g.out.H; oh++ {
			ih := oh*g.p.StrideH - g.p.PadH + r*g.p.DilationH
			for ow := 0; ow < g.out.W; ow++ {
				iw := ow*g.p.StrideW - g.p.PadW + s*g.p.DilationW
				off := int32(-1)
				if uint(ih) < uint(g.in.H) && uint(iw) < uint(g.in.W) {
					off = int32((c*g.in.H+ih)*g.in.W + iw)
				}
				trow[ti] = math.Float32frombits(uint32(off))
				ti++
			}
		}
	}
	prof.Exit(phImplicitPrecomp, t)
}

// runUnits computes units [lo, hi) with pack blocks on this stack: they
// are declared once per worker chunk, and no slice of them may reach an
// interface or a go closure.
//
//ucudnn:hotpath
func (g implicitCtx) runUnits(lo, hi int) {
	// One continuous Enter/Next chain, as in sgemmRows; it opens before
	// the pack blocks so that clearing them counts as packing.
	t := prof.Enter()
	rows := ceilDiv(imin(blas.MC, g.m), blas.MR) * blas.MR // of the largest A block
	if imin(blas.KC, g.k)*imax(rows, g.jw) <= implicitSmallPack {
		var packA, packB [implicitSmallPack]float32
		g.units(packA[:], packB[:], lo, hi, t)
		return
	}
	var packA [blas.MC * blas.KC]float32
	var packB [blas.KC * blas.NC]float32
	g.units(packA[:], packB[:], lo, hi, t)
}

// units walks units [lo, hi). Forward and BackwardData units are (sample,
// column block) pairs; a BackwardFilter unit is one column block of dW
// reduced over the batch in ascending n.
//
//ucudnn:hotpath
func (g implicitCtx) units(packA, packB []float32, lo, hi int, t int64) {
	for u := lo; u < hi; u++ {
		if g.op == BackwardFilter {
			for n := 0; n < g.in.N; n++ {
				t = g.block(packA, packB, n, u*g.jw, n == 0, t)
			}
			continue
		}
		t = g.block(packA, packB, u/g.jblocks, (u%g.jblocks)*g.jw, true, t)
	}
}

// block runs sample n's product for the C columns [j0, j0+jw): the kc/mc
// loops of sgemmRows with gathering packers. fresh says C has not been
// written yet, so the first k-block's store fuses beta.
//
//ucudnn:hotpath
func (g implicitCtx) block(packA, packB []float32, n, j0 int, fresh bool, t int64) int64 {
	jb := imin(g.jw, g.n-j0)
	c := g.c[n*g.cStride:]
	for k0 := 0; k0 < g.k; k0 += blas.KC {
		kb := imin(blas.KC, g.k-k0)
		g.packB(packB, n, k0, kb, j0, jb)
		t = prof.Next(phImplicitPack, t)
		first := fresh && k0 == 0
		for i0 := 0; i0 < g.m; i0 += blas.MC {
			ib := imin(blas.MC, g.m-i0)
			g.packA(packA, n, i0, ib, k0, kb)
			t = prof.Next(phImplicitPack, t)
			blas.KernelBlock(packA, packB, ib, jb, kb, first, g.beta, c, i0*g.n+j0, g.n)
			t = prof.Next(blas.KindSgemmKernel, t)
		}
	}
	return t
}

// packA packs alpha·A[i0:i0+ib, k0:k0+kb] into MR-row panels.
//
//ucudnn:hotpath
func (g implicitCtx) packA(pack []float32, n, i0, ib, k0, kb int) {
	switch g.op {
	case Forward:
		blas.PackAPanels(pack, false, g.w, g.k, i0, ib, k0, kb, g.alpha)
	case BackwardFilter:
		blas.PackAPanels(pack, false, g.y[n*g.m*g.k:(n+1)*g.m*g.k], g.k, i0, ib, k0, kb, g.alpha)
	case BackwardData:
		g.packWT(pack, i0, ib, k0, kb)
	}
}

// packWT packs BackwardData's A operand: row c, column (k, r, s) of Wᵀ is
// W[k][c][r][s].
//
//ucudnn:hotpath
func (g implicitCtx) packWT(pack []float32, i0, ib, k0, kb int) {
	rs := g.f.R * g.f.S
	crs := g.f.C * rs
	for it := 0; it < ib; it += blas.MR {
		dst := pack[(it/blas.MR)*(kb*blas.MR):]
		iw := imin(blas.MR, ib-it)
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

// packB gathers B[k0:k0+kb, j0:j0+jb] of sample n into NR-column panels
// stored [kb][NR], zero-padded past jb. Each gathered line goes through
// one L1-resident row so the three gathers share the panel stores.
//
//ucudnn:hotpath
func (g implicitCtx) packB(pack []float32, n, k0, kb, j0, jb int) {
	var line [max(blas.KC, blas.NC)]float32
	switch g.op {
	case Forward:
		xn := g.x[n*g.in.C*g.in.H*g.in.W : (n+1)*g.in.C*g.in.H*g.in.W]
		for p := 0; p < kb; p++ {
			if g.table != nil {
				gatherTable(line[:jb], xn, g.table[(k0+p)*g.n+j0:])
			} else {
				g.im2colLine(line[:jb], xn, k0+p, j0)
			}
			storeRow(pack, line[:], p, kb, jb)
		}
	case BackwardData:
		dyn := g.y[n*g.out.C*g.out.H*g.out.W : (n+1)*g.out.C*g.out.H*g.out.W]
		for p := 0; p < kb; p++ {
			g.gradLine(line[:jb], dyn, k0+p, j0)
			storeRow(pack, line[:], p, kb, jb)
		}
	case BackwardFilter:
		// B = im2col(X[n])ᵀ: column j of the block is im2col row j0+j over
		// the pixels [k0, k0+kb).
		xn := g.x[n*g.in.C*g.in.H*g.in.W : (n+1)*g.in.C*g.in.H*g.in.W]
		for j := 0; j < jb || j%blas.NR != 0; j++ {
			if j < jb {
				g.im2colLine(line[:kb], xn, j0+j, k0)
			} else {
				clear(line[:kb])
			}
			dst := pack[(j/blas.NR)*(kb*blas.NR)+j%blas.NR:]
			for p, v := range line[:kb] {
				dst[p*blas.NR] = v
			}
		}
	}
}

// storeRow writes line[:jb] as row p of the NR-column panels, zero-padding
// the last panel.
//
//ucudnn:hotpath
func storeRow(pack, line []float32, p, kb, jb int) {
	clear(line[jb : ceilDiv(jb, blas.NR)*blas.NR])
	for jt := 0; jt < jb; jt += blas.NR {
		// Element-wise like blas's PackBPanels: an array assignment would
		// call memmove.
		d := (*[blas.NR]float32)(pack[(jt/blas.NR)*(kb*blas.NR)+p*blas.NR:])
		src := (*[blas.NR]float32)(line[jt:])
		for j := range d {
			d[j] = src[j]
		}
	}
}

// gatherTable reads one table row's worth of sample xn: idx holds int32
// offsets (as float32 bits), negative for padded positions.
//
//ucudnn:hotpath
func gatherTable(line, xn, idx []float32) {
	for j := range line {
		var v float32
		if off := int32(math.Float32bits(idx[j])); off >= 0 {
			v = xn[off]
		}
		line[j] = v
	}
}

// im2colLine writes im2col(xn)[row][q0 : q0+len(line)]: tap row = (c, r, s)
// of sample xn over consecutive output pixels, zero at padded positions.
//
//ucudnn:hotpath
func (g implicitCtx) im2colLine(line, xn []float32, row, q0 int) {
	rs := g.f.R * g.f.S
	c, r, s := row/rs, (row/g.f.S)%g.f.R, row%g.f.S
	plane := xn[c*g.in.H*g.in.W : (c+1)*g.in.H*g.in.W]
	oh, ow := q0/g.out.W, q0%g.out.W
	for i := 0; i < len(line); oh, ow = oh+1, 0 {
		seg := line[i:imin(len(line), i+g.out.W-ow)]
		i += len(seg)
		ih := oh*g.p.StrideH - g.p.PadH + r*g.p.DilationH
		if uint(ih) >= uint(g.in.H) {
			clear(seg)
			continue
		}
		iw := ow*g.p.StrideW - g.p.PadW + s*g.p.DilationW
		gatherSeg(seg, plane[ih*g.in.W:(ih+1)*g.in.W], iw, 0, g.p.StrideW, 1)
	}
}

// gatherSeg writes one row segment of a line gather: element j reads
// src[pos] when rem == 0 and pos is in range, else zero; then rem counts
// up to period, where it wraps and pos advances by step. im2col lines walk
// src in steps of the stride (period 1); gradient lines visit each src
// element once per stride (step 1). Unit stride is a clipped copy.
//
//ucudnn:hotpath
func gatherSeg(seg, src []float32, pos, rem, step, period int) {
	if step == 1 && period == 1 {
		lo := imin(imax(-pos, 0), len(seg))
		hi := imin(imax(len(src)-pos, lo), len(seg))
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
			pos += step
		}
	}
}

// gradLine writes gather(dyn)[row][q0 : q0+len(line)]: for tap row =
// (k, r, s) and consecutive input pixels (ih, iw), the output gradient at
// (ih+pad-r·dil)/stride when that is an in-range whole number, else zero.
//
//ucudnn:hotpath
func (g implicitCtx) gradLine(line, dyn []float32, row, q0 int) {
	rs := g.f.R * g.f.S
	k, r, s := row/rs, (row/g.f.S)%g.f.R, row%g.f.S
	plane := dyn[k*g.out.H*g.out.W : (k+1)*g.out.H*g.out.W]
	ih, iw := q0/g.in.W, q0%g.in.W
	for i := 0; i < len(line); ih, iw = ih+1, 0 {
		seg := line[i:imin(len(line), i+g.in.W-iw)]
		i += len(seg)
		oh, rem := floorDivMod(ih+g.p.PadH-r*g.p.DilationH, g.p.StrideH)
		if rem != 0 || uint(oh) >= uint(g.out.H) {
			clear(seg)
			continue
		}
		ow, rem := floorDivMod(iw+g.p.PadW-s*g.p.DilationW, g.p.StrideW)
		gatherSeg(seg, plane[oh*g.out.W:(oh+1)*g.out.W], ow, rem, 1, g.p.StrideW)
	}
}

// floorDivMod returns floor(a/b) and the non-negative remainder, b > 0.
//
//ucudnn:hotpath
func floorDivMod(a, b int) (int, int) {
	q, r := a/b, a%b
	if r < 0 {
		q--
		r += b
	}
	return q, r
}
