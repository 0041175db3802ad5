package conv

import (
	"ucudnn/internal/fftpkg"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

// fftTile is the fixed spatial FFT size of the FFT_TILING algorithm,
// matching cuDNN's 32x32 tiles.
const fftTile = 32

// A spectralPlan describes the 2-D FFT geometry shared by all planes of
// one convolution call: a P x Q transform (powers of two) of which only
// the Hermitian half-spectrum (P rows x Q/2+1 columns) is stored, exactly
// as cuFFT's R2C transforms do. Each stored plane is interleaved
// (re, im) float32 pairs.
type spectralPlan struct {
	p, q, hw int // hw = q/2 + 1
}

func newSpectralPlan(rows, cols int) spectralPlan {
	p := fftpkg.NextPow2(rows)
	q := fftpkg.NextPow2(cols)
	return spectralPlan{p: p, q: q, hw: q/2 + 1}
}

// planeFloats returns the number of float32 elements per stored plane.
func (pl spectralPlan) planeFloats() int { return 2 * pl.p * pl.hw }

// tableFloats returns the float32 elements of the plan's precomputed
// twiddle tables, carved from the workspace once per Run.
func (pl spectralPlan) tableFloats() int { return fftpkg.PlanFloats(pl.p, pl.q) }

// scratchFloats returns the float32 elements of one worker's transform
// scratch (a real p x q plane plus a complex column buffer).
func (pl spectralPlan) scratchFloats() int { return fftpkg.ScratchFloats(pl.p, pl.q) }

// embedPlane zero-fills the real p x q scratch plane re (row stride q)
// and writes the source element data[base + ih*sh + iw*sw] into
// re[r*q+c] for r < rows, c < cols, where (ih, iw) = (r-offH, c-offW);
// source coordinates outside [0, limH) x [0, limW) are the zero padding
// and are skipped. Negative strides express the rotated-filter reads of
// BackwardData.
func embedPlane(re []float32, q, rows, cols int, data []float32, base, sh, sw, offH, offW, limH, limW int) {
	// Only the first rows*q elements are filled; FwdReal is told the rest
	// of the plane is zero and never reads it.
	for i := range re[:rows*q] {
		re[i] = 0
	}
	for r := 0; r < rows; r++ {
		ih := r - offH
		if ih < 0 || ih >= limH {
			continue
		}
		dst := re[r*q : r*q+cols]
		for c := range dst {
			iw := c - offW
			if iw < 0 || iw >= limW {
				continue
			}
			dst[c] = data[base+ih*sh+iw*sw]
		}
	}
}

// blendRows blends the top-left rows x cols corner of the real scratch
// plane re (row stride q) into the output at data[base + oh*sh + ow].
func blendRows(data []float32, base, sh int, re []float32, q, rows, cols int, alpha, beta float32) {
	for oh := 0; oh < rows; oh++ {
		src := re[oh*q : oh*q+cols]
		for ow := range src {
			blend(&data[base+oh*sh+ow], src[ow], alpha, beta)
		}
	}
}

// zeroPlane clears one stored plane.
func zeroPlane(dst []float32) {
	for i := range dst {
		dst[i] = 0
	}
}

// accumMulConj computes dst += a * conj(b) over interleaved complex planes.
// This is the spectral form of correlation (the DL "convolution").
func accumMulConj(dst, a, b []float32) {
	for i := 0; i < len(dst); i += 2 {
		ar, ai := a[i], a[i+1]
		br, bi := b[i], b[i+1]
		dst[i] += ar*br + ai*bi
		dst[i+1] += ai*br - ar*bi
	}
}

// fftPlanes returns the worst-case padded plane dimensions over the three
// operations, used by the support predicate to bound plan sizes.
func fftPlanes(cs tensor.ConvShape) (int, int) {
	p := cs.Params.Normalized()
	rows := imax(cs.In.H+2*p.PadH, cs.In.H+cs.Filt.R-1)
	cols := imax(cs.In.W+2*p.PadW, cs.In.W+cs.Filt.S-1)
	return fftpkg.NextPow2(rows), fftpkg.NextPow2(cols)
}

// fftPlanFor returns the spectral plan of op on cs.
func fftPlanFor(op Op, cs tensor.ConvShape) spectralPlan {
	p := cs.Params.Normalized()
	out := cs.OutShape()
	switch op {
	case Forward, BackwardFilter:
		// Correlate the padded input (with the filter, or with dY).
		return newSpectralPlan(cs.In.H+2*p.PadH, cs.In.W+2*p.PadW)
	case BackwardData:
		// Correlate dY padded by (R-1-pad) with the rotated filter; the
		// padded extent is OH + 2(R-1-pad) = H + R - 1.
		return newSpectralPlan(out.H+2*(cs.Filt.R-1-p.PadH), out.W+2*(cs.Filt.S-1-p.PadW))
	}
	panic("conv: bad op")
}

// fftFilterChunk is how many filter-bank rows (output channels for
// Forward/BackwardFilter, input channels for BackwardData) have their
// spectra resident at once. Chunking the filter planes makes the FFT
// workspace batch-dominated — the property micro-batching exploits.
const fftFilterChunk = 32

// fftChunkPlanes returns the number of resident filter-spectrum planes.
func fftChunkPlanes(op Op, cs tensor.ConvShape) int {
	c, k := cs.In.C, cs.Filt.K
	if op == BackwardData {
		return imin(c, fftFilterChunk) * k
	}
	return imin(k, fftFilterChunk) * c
}

// fftOverheadFloats is the non-plane part of the FFT workspace: the
// twiddle tables plus one transform scratch arena per worker.
func fftOverheadFloats(pl spectralPlan, workers int) int64 {
	return int64(pl.tableFloats()) + int64(workers)*int64(pl.scratchFloats())
}

// fftWorkspace returns the full-plane FFT workspace: one chunk of filter
// spectra plus spectra for every input and output plane — the
// (chunk + N*C + N*K) structure that makes FFT the memory-hungry,
// batch-proportional algorithm in the paper — plus the twiddle tables
// and per-worker transform scratch. With minimal set, scratch for a
// single worker: the floor at which Run degrades to the serial walk.
func fftWorkspace(op Op, cs tensor.ConvShape, minimal bool) int64 {
	pl := fftPlanFor(op, cs)
	n, c, k := int64(cs.In.N), int64(cs.In.C), int64(cs.Filt.K)
	planes := int64(fftChunkPlanes(op, cs)) + n*c + n*k
	workers := 1
	if !minimal {
		workers = MaxWorkers()
	}
	return (planes*int64(pl.planeFloats()) + fftOverheadFloats(pl, workers)) * 4
}

// fftTilingWorkspace returns the tiled-FFT workspace: filter spectra at
// the fixed tile size plus one tile's worth of input/output spectra,
// reused across tiles, plus tables and per-worker scratch.
func fftTilingWorkspace(op Op, cs tensor.ConvShape, minimal bool) int64 {
	pl := newSpectralPlan(fftTile, fftTile)
	n, c, k := int64(cs.In.N), int64(cs.In.C), int64(cs.Filt.K)
	planes := k*c + n*c + n*k
	workers := 1
	if !minimal {
		workers = MaxWorkers()
	}
	return (planes*int64(pl.planeFloats()) + fftOverheadFloats(pl, workers)) * 4
}

// fftStage identifies one fan-out stage of the FFT kernels; fftCtx.stageTask
// dispatches on it so the serial path runs as plain method calls with no
// closures (the zero-allocation steady state), while the parallel path
// wraps the same dispatch in one escaping closure per launch.
type fftStage int

const (
	stFullFwdX         fftStage = iota // padded input planes -> xspec
	stFullFwdW                         // filter chunk planes -> wspec
	stFullFwdWRot                      // rotated filter chunk -> wspec (BackwardData)
	stFullFwdDYPad                     // padded dY planes -> yspec (BackwardData)
	stFullFwdDY                        // unpadded dY planes -> yspec (BackwardFilter)
	stFullCombineFwd                   // accumulate+inverse+blend into y
	stFullCombineBwd                   // accumulate+inverse+blend into dX
	stFullCombineWgrad                 // accumulate+inverse+blend into dW

	stTileFwdW        // filter planes at tile size -> wspec
	stTileBwdW        // rotated filter planes -> wspec
	stTileFwdX        // input tile planes -> xspec
	stTileBwdDY       // padded dY tile planes -> yspec
	stTileWgradDY     // output-tile dY planes -> yspec (BackwardFilter)
	stTileZeroW       // clear the wspec accumulators
	stTileWgradAcc    // accumulate one tile's contribution into wspec
	stTileWgradFinish // inverse+blend wspec into dW
	stTileCombineFwd  // accumulate+inverse+blend one tile into y
	stTileCombineBwd  // accumulate+inverse+blend one tile into dX
)

// fftCtx carries the FFT kernel state: the spectral plan and its
// workspace-carved twiddle tables, the three spectrum regions, and the
// per-worker transform scratch. Stage parameters (filter-chunk base,
// tile origin) are plain fields set between stages.
type fftCtx struct {
	x           *tensor.Tensor
	w           *tensor.FilterTensor
	y           *tensor.Tensor
	alpha, beta float32

	in           tensor.Shape
	out          tensor.Shape
	f            tensor.Filter
	n, c, k      int
	padH, padW   int // forward input padding
	padBH, padBW int // BackwardData dY padding: R-1-padH, S-1-padW

	pl                  spectralPlan
	plan                fftpkg.Plan2D
	pf                  int // floats per stored plane
	wspec, xspec, yspec []float32
	scr                 []float32
	sf                  int // scratch floats per worker
	workers             int

	fb, fc       int // filter-chunk base and count (k0/kc or c0/ccnt)
	baseH, baseW int // tile origin (FFT_TILING)
	toH, toW     int // usable tile output extents (FFT_TILING)
}

// newFFTCtx carves ws into the spectrum regions, the twiddle tables, and
// as many per-worker scratch arenas as the granted workspace holds (at
// least one: Run has validated the MinWorkspace floor), so a smaller
// grant degrades parallelism without changing any result bit.
func newFFTCtx(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32, tiling bool) fftCtx {
	p := cs.Params.Normalized()
	in, out, f := cs.In, cs.OutShape(), cs.Filt
	var pl spectralPlan
	var wplanes int
	if tiling {
		pl = newSpectralPlan(fftTile, fftTile)
		wplanes = f.K * in.C
	} else {
		pl = fftPlanFor(op, cs)
		wplanes = fftChunkPlanes(op, cs)
	}
	g := fftCtx{
		x: x, w: w, y: y, alpha: alpha, beta: beta,
		in: in, out: out, f: f,
		n: in.N, c: in.C, k: f.K,
		padH: p.PadH, padW: p.PadW,
		padBH: f.R - 1 - p.PadH, padBW: f.S - 1 - p.PadW,
		pl: pl, pf: pl.planeFloats(),
	}
	planes := wplanes + g.n*g.c + g.n*g.k
	g.wspec = ws[:wplanes*g.pf]
	g.xspec = ws[wplanes*g.pf : (wplanes+g.n*g.c)*g.pf]
	g.yspec = ws[(wplanes+g.n*g.c)*g.pf : planes*g.pf]
	off := planes * g.pf
	tf := pl.tableFloats()
	g.plan = fftpkg.NewPlan2D(pl.p, pl.q, ws[off:off+tf])
	off += tf
	g.sf = pl.scratchFloats()
	g.workers = imin(MaxWorkers(), (len(ws)-off)/g.sf)
	if g.workers < 1 {
		g.workers = 1
	}
	g.scr = ws[off : off+g.workers*g.sf]
	return g
}

// scrFor returns worker wk's real plane and spectrum-row swap scratch.
func (g *fftCtx) scrFor(wk int) (re, tmp []float32) {
	s := g.scr[wk*g.sf : (wk+1)*g.sf]
	pq := g.pl.p * g.pl.q
	return s[:pq], s[pq:]
}

// fwdPlane embeds one real source plane into worker wk's scratch and
// forward-transforms it into the stored half-spectrum dst. Only the
// embedded rows are transformed: the plan treats the rest as exact
// zeros, which makes small-filter planes (3 nonzero rows in a 32-row
// tile) much cheaper than full transforms.
func (g *fftCtx) fwdPlane(wk int, dst, data []float32, base, sh, sw, rows, cols, offH, offW, limH, limW int) {
	re, tmp := g.scrFor(wk)
	embedPlane(re, g.pl.q, rows, cols, data, base, sh, sw, offH, offW, limH, limW)
	g.plan.FwdReal(dst, re, tmp, rows)
}

// invBlend inverse-transforms the accumulated half-spectrum acc
// (destroyed) in worker wk's scratch and blends its top-left rows x cols
// corner into data at base with row stride sh.
func (g *fftCtx) invBlend(wk int, acc, data []float32, base, sh, rows, cols int) {
	re, tmp := g.scrFor(wk)
	g.plan.InvReal(re, acc, tmp)
	blendRows(data, base, sh, re, g.pl.q, rows, cols, g.alpha, g.beta)
}

// stageTask executes task i of stage st in worker wk's scratch. The
// combine stages time their own pointwise/inverse split; the transform
// stages are timed chunk-level by forEach.
func (g *fftCtx) stageTask(st fftStage, wk, i int) {
	pf := g.pf
	switch st {
	case stFullFwdX:
		nn, cc := i/g.c, i%g.c
		g.fwdPlane(wk, g.xspec[i*pf:(i+1)*pf], g.x.Data, g.x.Index(nn, cc, 0, 0), g.in.W, 1,
			g.in.H+2*g.padH, g.in.W+2*g.padW, g.padH, g.padW, g.in.H, g.in.W)
	case stFullFwdW:
		dk, cc := i/g.c, i%g.c
		g.fwdPlane(wk, g.wspec[i*pf:(i+1)*pf], g.w.Data, g.w.Index(g.fb+dk, cc, 0, 0), g.f.S, 1,
			g.f.R, g.f.S, 0, 0, g.f.R, g.f.S)
	case stFullFwdWRot:
		dc, kk := i/g.k, i%g.k
		g.fwdPlane(wk, g.wspec[i*pf:(i+1)*pf], g.w.Data, g.w.Index(kk, g.fb+dc, g.f.R-1, g.f.S-1), -g.f.S, -1,
			g.f.R, g.f.S, 0, 0, g.f.R, g.f.S)
	case stFullFwdDYPad:
		nn, kk := i/g.k, i%g.k
		g.fwdPlane(wk, g.yspec[i*pf:(i+1)*pf], g.y.Data, g.y.Index(nn, kk, 0, 0), g.out.W, 1,
			g.out.H+2*g.padBH, g.out.W+2*g.padBW, g.padBH, g.padBW, g.out.H, g.out.W)
	case stFullFwdDY:
		nn, kk := i/g.k, i%g.k
		g.fwdPlane(wk, g.yspec[i*pf:(i+1)*pf], g.y.Data, g.y.Index(nn, kk, 0, 0), g.out.W, 1,
			g.out.H, g.out.W, 0, 0, g.out.H, g.out.W)
	case stFullCombineFwd:
		nn, dk := i/g.fc, i%g.fc
		kk := g.fb + dk
		acc := g.yspec[(nn*g.k+kk)*pf : (nn*g.k+kk+1)*pf]
		t := prof.Enter()
		zeroPlane(acc)
		for cc := 0; cc < g.c; cc++ {
			accumMulConj(acc, g.xspec[(nn*g.c+cc)*pf:(nn*g.c+cc+1)*pf], g.wspec[(dk*g.c+cc)*pf:(dk*g.c+cc+1)*pf])
		}
		t = prof.Next(phRFFTPointwise, t)
		g.invBlend(wk, acc, g.y.Data, g.y.Index(nn, kk, 0, 0), g.out.W, g.out.H, g.out.W)
		prof.Exit(phRFFTInverse, t)
	case stFullCombineBwd:
		nn, dc := i/g.fc, i%g.fc
		cc := g.fb + dc
		acc := g.xspec[(nn*g.c+cc)*pf : (nn*g.c+cc+1)*pf]
		t := prof.Enter()
		zeroPlane(acc)
		for kk := 0; kk < g.k; kk++ {
			accumMulConj(acc, g.yspec[(nn*g.k+kk)*pf:(nn*g.k+kk+1)*pf], g.wspec[(dc*g.k+kk)*pf:(dc*g.k+kk+1)*pf])
		}
		t = prof.Next(phRFFTPointwise, t)
		g.invBlend(wk, acc, g.x.Data, g.x.Index(nn, cc, 0, 0), g.in.W, g.in.H, g.in.W)
		prof.Exit(phRFFTInverse, t)
	case stFullCombineWgrad:
		dk, cc := i/g.c, i%g.c
		kk := g.fb + dk
		acc := g.wspec[i*pf : (i+1)*pf]
		t := prof.Enter()
		zeroPlane(acc)
		for nn := 0; nn < g.n; nn++ {
			accumMulConj(acc, g.xspec[(nn*g.c+cc)*pf:(nn*g.c+cc+1)*pf], g.yspec[(nn*g.k+kk)*pf:(nn*g.k+kk+1)*pf])
		}
		t = prof.Next(phRFFTPointwise, t)
		g.invBlend(wk, acc, g.w.Data, g.w.Index(kk, cc, 0, 0), g.f.S, g.f.R, g.f.S)
		prof.Exit(phRFFTInverse, t)

	case stTileFwdW:
		kk, cc := i/g.c, i%g.c
		g.fwdPlane(wk, g.wspec[i*pf:(i+1)*pf], g.w.Data, g.w.Index(kk, cc, 0, 0), g.f.S, 1,
			g.f.R, g.f.S, 0, 0, g.f.R, g.f.S)
	case stTileBwdW:
		cc, kk := i/g.k, i%g.k
		g.fwdPlane(wk, g.wspec[i*pf:(i+1)*pf], g.w.Data, g.w.Index(kk, cc, g.f.R-1, g.f.S-1), -g.f.S, -1,
			g.f.R, g.f.S, 0, 0, g.f.R, g.f.S)
	case stTileFwdX:
		nn, cc := i/g.c, i%g.c
		g.fwdPlane(wk, g.xspec[i*pf:(i+1)*pf], g.x.Data, g.x.Index(nn, cc, 0, 0), g.in.W, 1,
			fftTile, fftTile, g.padH-g.baseH, g.padW-g.baseW, g.in.H, g.in.W)
	case stTileBwdDY:
		nn, kk := i/g.k, i%g.k
		g.fwdPlane(wk, g.yspec[i*pf:(i+1)*pf], g.y.Data, g.y.Index(nn, kk, 0, 0), g.out.W, 1,
			fftTile, fftTile, g.padBH-g.baseH, g.padBW-g.baseW, g.out.H, g.out.W)
	case stTileWgradDY:
		nn, kk := i/g.k, i%g.k
		g.fwdPlane(wk, g.yspec[i*pf:(i+1)*pf], g.y.Data, g.y.Index(nn, kk, 0, 0), g.out.W, 1,
			g.toH, g.toW, -g.baseH, -g.baseW, g.out.H, g.out.W)
	case stTileZeroW:
		zeroPlane(g.wspec[i*pf : (i+1)*pf])
	case stTileWgradAcc:
		kk, cc := i/g.c, i%g.c
		acc := g.wspec[i*pf : (i+1)*pf]
		for nn := 0; nn < g.n; nn++ {
			accumMulConj(acc, g.xspec[(nn*g.c+cc)*pf:(nn*g.c+cc+1)*pf], g.yspec[(nn*g.k+kk)*pf:(nn*g.k+kk+1)*pf])
		}
	case stTileWgradFinish:
		kk, cc := i/g.c, i%g.c
		g.invBlend(wk, g.wspec[i*pf:(i+1)*pf], g.w.Data, g.w.Index(kk, cc, 0, 0), g.f.S, g.f.R, g.f.S)
	case stTileCombineFwd:
		nn, kk := i/g.k, i%g.k
		acc := g.yspec[i*pf : (i+1)*pf]
		t := prof.Enter()
		zeroPlane(acc)
		for cc := 0; cc < g.c; cc++ {
			accumMulConj(acc, g.xspec[(nn*g.c+cc)*pf:(nn*g.c+cc+1)*pf], g.wspec[(kk*g.c+cc)*pf:(kk*g.c+cc+1)*pf])
		}
		t = prof.Next(phRFFTPointwise, t)
		g.invBlend(wk, acc, g.y.Data, g.y.Index(nn, kk, g.baseH, g.baseW), g.out.W,
			imin(g.toH, g.out.H-g.baseH), imin(g.toW, g.out.W-g.baseW))
		prof.Exit(phRFFTInverse, t)
	case stTileCombineBwd:
		nn, cc := i/g.c, i%g.c
		acc := g.xspec[i*pf : (i+1)*pf]
		t := prof.Enter()
		zeroPlane(acc)
		for kk := 0; kk < g.k; kk++ {
			accumMulConj(acc, g.yspec[(nn*g.k+kk)*pf:(nn*g.k+kk+1)*pf], g.wspec[(cc*g.k+kk)*pf:(cc*g.k+kk+1)*pf])
		}
		t = prof.Next(phRFFTPointwise, t)
		g.invBlend(wk, acc, g.x.Data, g.x.Index(nn, cc, g.baseH, g.baseW), g.in.W,
			imin(g.toH, g.in.H-g.baseH), imin(g.toW, g.in.W-g.baseW))
		prof.Exit(phRFFTInverse, t)
	}
}

// forEach runs stage st over n tasks, each worker's chunk timed as one
// window of phase ph; the self-timing combine stages, whose tasks split
// their own time between the pointwise and inverse phases, pass ph 0.
// The serial path (one worker or one task) is plain calls — no closure,
// no allocation; the parallel path captures a copy of the context in
// one escaping closure per launch.
func (g *fftCtx) forEach(ph prof.Kind, n int, st fftStage) {
	if imin(g.workers, n) <= 1 {
		g.stageTasks(ph, st, 0, 0, n)
		return
	}
	gc := *g
	fork(g.workers, n, func(wk, lo, hi int) { gc.stageTasks(ph, st, wk, lo, hi) })
}

// stageTasks runs tasks [lo, hi) of stage st in worker wk's scratch as
// one window of phase ph (the zero Kind records nothing).
func (g *fftCtx) stageTasks(ph prof.Kind, st fftStage, wk, lo, hi int) {
	t := prof.Enter()
	for i := lo; i < hi; i++ {
		g.stageTask(st, wk, i)
	}
	prof.Exit(ph, t)
}

// runFFT executes the full-plane FFT convolution.
func runFFT(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32) {
	g := newFFTCtx(op, cs, x, w, y, alpha, beta, ws, false)
	switch op {
	case Forward:
		// Padded-input spectra (resident for all chunks), then per chunk
		// of output channels: filter spectra, pointwise accumulate over
		// input channels, inverse, blend.
		g.forEach(phRFFTForward, g.n*g.c, stFullFwdX)
		kch := imin(g.k, fftFilterChunk)
		for k0 := 0; k0 < g.k; k0 += kch {
			g.fb, g.fc = k0, imin(kch, g.k-k0)
			g.forEach(phRFFTForward, g.fc*g.c, stFullFwdW)
			g.forEach(0, g.n*g.fc, stFullCombineFwd)
		}
	case BackwardData:
		// dX[n,c] = sum_k corr(padded dY[n,k], rot(w[k,c])).
		g.forEach(phRFFTForward, g.n*g.k, stFullFwdDYPad)
		cch := imin(g.c, fftFilterChunk)
		for c0 := 0; c0 < g.c; c0 += cch {
			g.fb, g.fc = c0, imin(cch, g.c-c0)
			g.forEach(phRFFTForward, g.fc*g.k, stFullFwdWRot)
			g.forEach(0, g.n*g.fc, stFullCombineBwd)
		}
	case BackwardFilter:
		// dW[k,c] = sum_n corr(padded X[n,c], dY[n,k])[0:R, 0:S].
		g.forEach(phRFFTForward, g.n*g.c, stFullFwdX)
		g.forEach(phRFFTForward, g.n*g.k, stFullFwdDY)
		kch := imin(g.k, fftFilterChunk)
		for k0 := 0; k0 < g.k; k0 += kch {
			g.fb, g.fc = k0, imin(kch, g.k-k0)
			g.forEach(0, g.fc*g.c, stFullCombineWgrad)
		}
	}
}

// runFFTTiling executes the 32x32-tiled FFT convolution: filter spectra
// are computed once at the tile size and reused across spatial tiles,
// while input/output tile spectra are recomputed per tile, bounding the
// workspace independently of the spatial extent.
func runFFTTiling(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32) {
	g := newFFTCtx(op, cs, x, w, y, alpha, beta, ws, true)
	g.toH, g.toW = fftTile-g.f.R+1, fftTile-g.f.S+1
	switch op {
	case Forward:
		tilesH, tilesW := ceilDiv(g.out.H, g.toH), ceilDiv(g.out.W, g.toW)
		g.forEach(phRFFTForward, g.k*g.c, stTileFwdW)
		for th := 0; th < tilesH; th++ {
			for tw := 0; tw < tilesW; tw++ {
				g.baseH, g.baseW = th*g.toH, tw*g.toW
				g.forEach(phRFFTForward, g.n*g.c, stTileFwdX)
				g.forEach(0, g.n*g.k, stTileCombineFwd)
			}
		}
	case BackwardData:
		// Same structure on the rotated filter and padded dY, tiled over dX.
		tilesH, tilesW := ceilDiv(g.in.H, g.toH), ceilDiv(g.in.W, g.toW)
		g.forEach(phRFFTForward, g.c*g.k, stTileBwdW)
		for th := 0; th < tilesH; th++ {
			for tw := 0; tw < tilesW; tw++ {
				g.baseH, g.baseW = th*g.toH, tw*g.toW
				g.forEach(phRFFTForward, g.n*g.k, stTileBwdDY)
				g.forEach(0, g.n*g.c, stTileCombineBwd)
			}
		}
	case BackwardFilter:
		// Tile the summation domain: each tile contributes a partial
		// correlation of the padded input patch with the dY patch;
		// contributions accumulate in spectral space in wspec.
		tilesH, tilesW := ceilDiv(g.out.H, g.toH), ceilDiv(g.out.W, g.toW)
		g.forEach(phRFFTPointwise, g.k*g.c, stTileZeroW)
		for th := 0; th < tilesH; th++ {
			for tw := 0; tw < tilesW; tw++ {
				g.baseH, g.baseW = th*g.toH, tw*g.toW
				g.forEach(phRFFTForward, g.n*g.c, stTileFwdX)
				g.forEach(phRFFTForward, g.n*g.k, stTileWgradDY)
				g.forEach(phRFFTPointwise, g.k*g.c, stTileWgradAcc)
			}
		}
		g.forEach(phRFFTInverse, g.k*g.c, stTileWgradFinish)
	}
}
