package conv

import (
	"ucudnn/internal/blas"
	"ucudnn/internal/fftpkg"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

// fftTile is the fixed spatial FFT size of the FFT_TILING algorithm,
// matching cuDNN's 32x32 tiles.
const fftTile = 32

// fftFilterChunk is how many filter-bank rows AlgoFFT keeps resident.
// Chunking the bank makes the FFT workspace batch-dominated — the
// property micro-batching exploits.
const fftFilterChunk = 32

// fftMaxPlane bounds AlgoFFT's plane the way cuDNN bounds its FFT plan
// size.
const fftMaxPlane = 1024

// An fftGeom is the transform geometry of one spectral call, the one
// description both FFT algorithms run from and the device model costs.
// Every real p x q plane is stored as its Hermitian half-spectrum, p rows
// of q/2+1 interleaved (re, im) float32 pairs, exactly as cuFFT's R2C
// transforms do. The tiled extent (see tiledExtent) is cut into tilesH x
// tilesW tiles of toH x toW outputs; a tile's operand planes span the
// tile plus the filter's halo. The filter bank has bank rows (output
// channels, or input channels for BackwardData), chunk of which have
// their spectra resident at once.
//
// AlgoFFT is the one-tile case: a single tile covering the padded plane,
// rounded up to powers of two, with the bank in chunks of
// fftFilterChunk. AlgoFFTTiling runs fftTile x fftTile planes with the
// whole bank resident, which bounds its workspace independently of the
// spatial extent.
type fftGeom struct {
	p, q           int
	toH, toW       int
	tilesH, tilesW int
	bank, chunk    int
}

// fftGeometry returns the geometry algo (AlgoFFT or AlgoFFTTiling) runs
// op on cs with.
func fftGeometry(op Op, algo Algo, cs tensor.ConvShape) fftGeom {
	r, s := cs.Filt.R, cs.Filt.S
	h, w := tiledExtent(op, cs)
	bank := cs.Filt.K
	if op == BackwardData {
		bank = cs.In.C
	}
	if algo == AlgoFFTTiling {
		toH, toW := fftTile-r+1, fftTile-s+1
		return fftGeom{p: fftTile, q: fftTile, toH: toH, toW: toW,
			tilesH: ceilDiv(h, toH), tilesW: ceilDiv(w, toW), bank: bank, chunk: bank}
	}
	return fftGeom{p: fftpkg.NextPow2(h + r - 1), q: fftpkg.NextPow2(w + s - 1), toH: h, toW: w,
		tilesH: 1, tilesW: 1, bank: bank, chunk: min(bank, fftFilterChunk)}
}

// FFTGeometry returns the p x q plane and the per-sample tile count with
// which algo (AlgoFFT or AlgoFFTTiling) runs op on cs, a supported shape:
// the geometry the device cost model prices.
func FFTGeometry(op Op, algo Algo, cs tensor.ConvShape) (p, q, tiles int) {
	g := fftGeometry(op, algo, cs)
	return g.p, g.q, g.tilesH * g.tilesW
}

// planeFloats returns the number of float32 elements per stored plane.
func (g fftGeom) planeFloats() int { return 2 * g.p * (g.q/2 + 1) }

// bankPlanes returns the resident filter-spectrum planes: chunk bank rows
// of one plane per channel on the filter's other axis.
func (g fftGeom) bankPlanes(op Op, cs tensor.ConvShape) int {
	if op == BackwardData {
		return g.chunk * cs.Filt.K
	}
	return g.chunk * cs.In.C
}

// fftWorkspace returns the spectral workspace: the resident filter
// spectra plus spectra for every input and output plane of one tile —
// the (chunk + N*C + N*K) structure that makes AlgoFFT the memory-hungry,
// batch-proportional algorithm in the paper — plus the twiddle tables
// and per-worker transform scratch. With minimal set, scratch for a
// single worker: the floor at which Run degrades to the serial walk.
func fftWorkspace(op Op, algo Algo, cs tensor.ConvShape, minimal bool) int64 {
	g := fftGeometry(op, algo, cs)
	n, c, k := int64(cs.In.N), int64(cs.In.C), int64(cs.Filt.K)
	planes := int64(g.bankPlanes(op, cs)) + n*c + n*k
	workers := 1
	if !minimal {
		workers = MaxWorkers()
	}
	overhead := int64(fftpkg.PlanFloats(g.p, g.q)) + int64(workers)*int64(fftpkg.ScratchFloats(g.p, g.q))
	return (planes*int64(g.planeFloats()) + overhead) * 4
}

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

// fftStage identifies one fan-out stage of the spectral kernels;
// fftCtx.stageTask dispatches on it so the serial path runs as plain
// method calls with no closures (the zero-allocation steady state), while
// the parallel path wraps the same dispatch in one escaping closure per
// launch.
type fftStage int

const (
	stOperand fftStage = iota // operand tile planes -> a.spec
	stGrad                    // BackwardFilter's dY tile planes -> b.spec
	stBank                    // filter chunk planes (rotated for BackwardData) -> wspec
	stCombine                 // accumulate+inverse+blend one tile of a chunk's outputs
	stWgrad                   // accumulate one tile into wspec; inverse+blend into dW after the last
)

// An fftSrc is a tensor whose planes a transform stage stores in spec,
// one spectrum per (sample, channel): each tile embeds rows x cols of
// the tensor, zero-padded by (padH, padW), from the tile origin.
type fftSrc struct {
	t          *tensor.Tensor
	spec       []float32
	rows, cols int
	padH, padW int
}

// planes returns the number of stored spectra: one per (sample, channel).
func (s *fftSrc) planes() int { return s.t.Shape.N * s.t.Shape.C }

// fftCtx carries the spectral kernels' state. Forward and BackwardData
// are one correlation with the roles swapped: the operand a (x, or dY
// padded by R-1-pad) is correlated with the filter bank (w, or w rotated)
// into res (y, or dX), accumulating in resSpec. BackwardFilter correlates
// a (x) with b (dY) and accumulates in the bank's own spectra. Stage
// parameters (filter chunk, tile origin) are plain fields set between
// stages.
type fftCtx struct {
	w           *tensor.FilterTensor
	alpha, beta float32
	f           tensor.Filter

	geo     fftGeom
	plan    fftpkg.Plan2D
	wspec   []float32
	scr     []float32
	sf      int // scratch floats per worker
	workers int

	a, b    fftSrc
	res     *tensor.Tensor
	resSpec []float32

	fb, fc       int  // filter-chunk base and count
	baseH, baseW int  // tile origin
	rot          bool // read the bank rotated, its K/C axes swapped (BackwardData)
	first, last  bool // the tile is the first / last (BackwardFilter)
}

// newFFTCtx carves ws into the bank, operand and result spectra, the
// twiddle tables, and as many per-worker scratch arenas as the granted
// workspace holds (at least one: Run has validated the MinWorkspace
// floor), so a smaller grant degrades parallelism without changing any
// result bit.
func newFFTCtx(op Op, algo Algo, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32) fftCtx {
	p := cs.Params.Normalized()
	geo := fftGeometry(op, algo, cs)
	f := cs.Filt
	g := fftCtx{
		w: w, alpha: alpha, beta: beta, f: f, geo: geo,
		rot: op == BackwardData,
	}
	pf := geo.planeFloats()
	wplanes, nc, nk := geo.bankPlanes(op, cs), cs.In.N*cs.In.C, cs.In.N*f.K
	g.wspec = ws[:wplanes*pf]
	xspec := ws[wplanes*pf : (wplanes+nc)*pf]
	yspec := ws[(wplanes+nc)*pf : (wplanes+nc+nk)*pf]
	rows, cols := geo.toH+f.R-1, geo.toW+f.S-1
	switch op {
	case Forward:
		g.a = fftSrc{x, xspec, rows, cols, p.PadH, p.PadW}
		g.res, g.resSpec = y, yspec
	case BackwardData:
		// dX[n,c] = sum_k corr(padded dY[n,k], rot(w[k,c])).
		g.a = fftSrc{y, yspec, rows, cols, f.R - 1 - p.PadH, f.S - 1 - p.PadW}
		g.res, g.resSpec = x, xspec
	case BackwardFilter:
		// dW[k,c] = sum_n corr(padded X[n,c], dY[n,k])[0:R, 0:S], each
		// tile a partial correlation of an input patch with a dY patch.
		g.a = fftSrc{x, xspec, rows, cols, p.PadH, p.PadW}
		g.b = fftSrc{y, yspec, geo.toH, geo.toW, 0, 0}
	}
	off := (wplanes + nc + nk) * pf
	tf := fftpkg.PlanFloats(geo.p, geo.q)
	g.plan = fftpkg.NewPlan2D(geo.p, geo.q, ws[off:off+tf])
	off += tf
	g.sf = fftpkg.ScratchFloats(geo.p, geo.q)
	g.workers = min(MaxWorkers(), (len(ws)-off)/g.sf)
	if g.workers < 1 {
		g.workers = 1
	}
	g.scr = ws[off : off+g.workers*g.sf]
	return g
}

// scrFor returns worker wk's real plane and spectrum-row swap scratch.
func (g *fftCtx) scrFor(wk int) (re, tmp []float32) {
	s := g.scr[wk*g.sf : (wk+1)*g.sf]
	pq := g.geo.p * g.geo.q
	return s[:pq], s[pq:]
}

// fwdPlane embeds one real source plane into worker wk's scratch and
// forward-transforms it into the stored half-spectrum dst. Only the
// embedded rows are transformed: the plan treats the rest as exact
// zeros, which makes small-filter planes (3 nonzero rows in a 32-row
// tile) much cheaper than full transforms.
func (g *fftCtx) fwdPlane(wk int, dst, data []float32, base, sh, sw, rows, cols, offH, offW, limH, limW int) {
	re, tmp := g.scrFor(wk)
	embedPlane(re, g.geo.q, rows, cols, data, base, sh, sw, offH, offW, limH, limW)
	g.plan.FwdReal(dst, re, tmp, rows)
}

// fwdTile transforms plane i = (sample, channel) of s at the current
// tile origin.
func (g *fftCtx) fwdTile(wk int, s *fftSrc, i int) {
	t, pf := s.t, g.geo.planeFloats()
	nn, ch := i/t.Shape.C, i%t.Shape.C
	g.fwdPlane(wk, s.spec[i*pf:(i+1)*pf], t.Data, t.Index(nn, ch, 0, 0), t.Shape.W, 1,
		s.rows, s.cols, s.padH-g.baseH, s.padW-g.baseW, t.Shape.H, t.Shape.W)
}

// invBlend inverse-transforms the accumulated half-spectrum acc
// (destroyed) in worker wk's scratch and blends its top-left rows x cols
// corner into data at base with row stride sh.
func (g *fftCtx) invBlend(wk int, acc, data []float32, base, sh, rows, cols int) {
	re, tmp := g.scrFor(wk)
	g.plan.InvReal(re, acc, tmp)
	blendRows(data, base, sh, re, g.geo.q, rows, cols, g.alpha, g.beta)
}

// stageTask executes task i of stage st in worker wk's scratch. The
// accumulating stages time their own pointwise/inverse split; the
// transform stages are timed chunk-level by forEach.
func (g *fftCtx) stageTask(st fftStage, wk, i int) {
	pf := g.geo.planeFloats()
	switch st {
	case stOperand:
		g.fwdTile(wk, &g.a, i)
	case stGrad:
		g.fwdTile(wk, &g.b, i)
	case stBank:
		jn := g.a.t.Shape.C
		d, j := g.fb+i/jn, i%jn
		base, sh, sw := g.w.Index(d, j, 0, 0), g.f.S, 1
		if g.rot {
			base, sh, sw = g.w.Index(j, d, g.f.R-1, g.f.S-1), -g.f.S, -1
		}
		g.fwdPlane(wk, g.wspec[i*pf:(i+1)*pf], g.w.Data, base, sh, sw, g.f.R, g.f.S, 0, 0, g.f.R, g.f.S)
	case stCombine:
		r, jn := g.res, g.a.t.Shape.C
		nn, d := i/g.fc, i%g.fc
		ch := g.fb + d
		acc := g.resSpec[(nn*r.Shape.C+ch)*pf : (nn*r.Shape.C+ch+1)*pf]
		t := prof.Enter()
		zeroPlane(acc)
		for j := 0; j < jn; j++ {
			accumMulConj(acc, g.a.spec[(nn*jn+j)*pf:(nn*jn+j+1)*pf], g.wspec[(d*jn+j)*pf:(d*jn+j+1)*pf])
		}
		t = prof.Next(phRFFTPointwise, t)
		g.invBlend(wk, acc, r.Data, r.Index(nn, ch, g.baseH, g.baseW), r.Shape.W,
			min(g.geo.toH, r.Shape.H-g.baseH), min(g.geo.toW, r.Shape.W-g.baseW))
		prof.Exit(phRFFTInverse, t)
	case stWgrad:
		x, dy := g.a.t.Shape, g.b.t.Shape
		d, cc := i/x.C, i%x.C
		kk := g.fb + d
		acc := g.wspec[i*pf : (i+1)*pf]
		t := prof.Enter()
		if g.first {
			zeroPlane(acc)
		}
		for nn := 0; nn < x.N; nn++ {
			accumMulConj(acc, g.a.spec[(nn*x.C+cc)*pf:(nn*x.C+cc+1)*pf], g.b.spec[(nn*dy.C+kk)*pf:(nn*dy.C+kk+1)*pf])
		}
		if !g.last {
			prof.Exit(phRFFTPointwise, t)
			return
		}
		t = prof.Next(phRFFTPointwise, t)
		g.invBlend(wk, acc, g.w.Data, g.w.Index(kk, cc, 0, 0), g.f.S, g.f.R, g.f.S)
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
	if min(g.workers, n) <= 1 {
		g.stageTasks(ph, st, 0, 0, n)
		return
	}
	gc := *g
	blas.Fork(g.workers, n, func(wk, lo, hi int) { gc.stageTasks(ph, st, wk, lo, hi) })
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

// runFFT executes op with either spectral algorithm over its geometry.
// Chunks of the filter bank are walked once each, outermost; every tile
// of the tiled extent is walked inside each chunk. The bank chunk is
// transformed once, before its tiles; a tile's operand spectra are
// transformed per chunk, except that a single tile's stay resident
// across chunks. So AlgoFFT (one tile) transforms its operands once and
// each chunk once, and AlgoFFTTiling (one chunk) the bank once and each
// tile's operands once.
func runFFT(op Op, algo Algo, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32) {
	g := newFFTCtx(op, algo, cs, x, w, y, alpha, beta, ws)
	tiles := g.geo.tilesH * g.geo.tilesW
	for fb := 0; fb < g.geo.bank; fb += g.geo.chunk {
		g.fb, g.fc = fb, min(g.geo.chunk, g.geo.bank-fb)
		if op != BackwardFilter {
			g.forEach(phRFFTForward, g.fc*g.a.t.Shape.C, stBank)
		}
		for t := 0; t < tiles; t++ {
			g.baseH, g.baseW = t/g.geo.tilesW*g.geo.toH, t%g.geo.tilesW*g.geo.toW
			if fb == 0 || tiles > 1 {
				g.forEach(phRFFTForward, g.a.planes(), stOperand)
				if op == BackwardFilter {
					g.forEach(phRFFTForward, g.b.planes(), stGrad)
				}
			}
			if op == BackwardFilter {
				g.first, g.last = t == 0, t == tiles-1
				g.forEach(0, g.fc*g.f.C, stWgrad)
			} else {
				g.forEach(0, g.a.t.Shape.N*g.fc, stCombine)
			}
		}
	}
}
