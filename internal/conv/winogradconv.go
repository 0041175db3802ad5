package conv

import (
	"fmt"
	"sync"

	"ucudnn/internal/blas"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
	"ucudnn/internal/winograd"
)

// fusedBlockTiles bounds how many tiles the fused Winograd variant keeps
// in flight; its workspace is independent of the spatial extent and batch.
const fusedBlockTiles = 64

var (
	wtMu    sync.Mutex
	wtCache = map[[2]int]*winograd.Transform{}
)

// winogradLargeTileMin is the smallest tiled extent at which the
// non-fused 3x3 path steps up from F(4x4,3x3) to F(6x6,3x3): two full
// 6-wide tiles per dimension, so the halo and tail waste of the larger
// tile is amortized. Below it F(4,3) wastes less work and carries less
// FP32 transform error.
const winogradLargeTileMin = 12

// winogradM returns the Winograd output-tile size m for op on cs — a
// pure function of the shape, so every worker count and workspace grant
// (and the device cost model, which mirrors this rule) agrees on the
// transform. Fused is always F(2x2,3x3); non-fused 5x5 is F(2x2,5x5);
// non-fused 3x3 picks F(6x6,3x3) on large output planes and F(4x4,3x3)
// otherwise.
func winogradM(op Op, cs tensor.ConvShape, fused bool) int {
	r := cs.Filt.R
	switch {
	case fused && r == 3:
		return 2
	case !fused && r == 5:
		return 2
	case !fused && r == 3:
		// The tiled extents: dX for BackwardData (the transformed
		// problem's output), the forward output otherwise.
		rows, cols := cs.OutShape().H, cs.OutShape().W
		if op == BackwardData {
			rows, cols = cs.In.H, cs.In.W
		}
		if rows >= winogradLargeTileMin && cols >= winogradLargeTileMin {
			return 6
		}
		return 4
	}
	panic(fmt.Sprintf("conv: no winograd transform for fused=%v r=%d", fused, r))
}

// winogradTransformFor returns the cached transform for op on cs:
// fused uses F(2x2,3x3); non-fused picks F(4x4,3x3) or F(6x6,3x3) by
// output extent (see winogradM) and supports 5x5 kernels via
// F(2x2,5x5), mirroring cuDNN.
func winogradTransformFor(op Op, cs tensor.ConvShape, fused bool) *winograd.Transform {
	m, r := winogradM(op, cs, fused), cs.Filt.R
	key := [2]int{m, r}
	wtMu.Lock()
	defer wtMu.Unlock()
	if tr, ok := wtCache[key]; ok {
		return tr
	}
	tr, err := winograd.NewTransform(m, r)
	if err != nil {
		panic(err)
	}
	wtCache[key] = tr
	return tr
}

// winogradTiles returns the number of tiles per image dimension and total
// tile count for tiling a rows x cols output with m x m tiles over batch n.
func winogradTiles(m, rows, cols, n int) (tilesH, tilesW, total int) {
	tilesH = ceilDiv(rows, m)
	tilesW = ceilDiv(cols, m)
	return tilesH, tilesW, n * tilesH * tilesW
}

// winogradArenaFloats is the per-worker share of the workspace beyond the
// spectral banks: three alpha^2 buffers, the scratch of one per-tile
// transform. The lane-batched kernels keep their scratch on the worker's
// stack and never touch it; it stays in the formulas because they are
// plan-visible, and a grant's arena count is still what admits workers
// (see winogradWorkers).
func winogradArenaFloats(tr *winograd.Transform) int {
	return 3 * tr.Alpha * tr.Alpha
}

// winogradBaseFloats returns the float32 elements of the shared spectral
// buffers (filter spectra, input-tile spectra, products/accumulators) —
// everything in the workspace except the per-worker arenas.
func winogradBaseFloats(op Op, cs tensor.ConvShape, tr *winograd.Transform, fused bool) int64 {
	a2 := int64(tr.Alpha * tr.Alpha)
	out := cs.OutShape()
	c, k := int64(cs.In.C), int64(cs.Filt.K)
	var total int
	switch op {
	case BackwardFilter:
		_, _, total = winogradTiles(tr.M, out.H, out.W, cs.In.N)
		// Input tiles, output-gradient tiles, and the spectral accumulator.
		return a2 * ((c+k)*int64(total) + k*c)
	case BackwardData:
		_, _, total = winogradTiles(tr.M, cs.In.H, cs.In.W, cs.In.N)
	default:
		_, _, total = winogradTiles(tr.M, out.H, out.W, cs.In.N)
	}
	bp := int64(total)
	if fused && bp > fusedBlockTiles {
		bp = fusedBlockTiles
	}
	return a2 * (k*c + (c+k)*bp)
}

// winogradWorkspace returns the scratch bytes of the (non-)fused Winograd
// algorithm for op on cs: the shared spectral buffers plus one transform
// arena per engine worker (or a single arena with minimal set — the floor
// at which the tile loops run serially).
func winogradWorkspace(op Op, cs tensor.ConvShape, fused, minimal bool) int64 {
	tr := winogradTransformFor(op, cs, fused)
	workers := MaxWorkers()
	if minimal {
		workers = 1
	}
	arenas := int64(workers) * int64(winogradArenaFloats(tr))
	return (winogradBaseFloats(op, cs, tr, fused) + arenas) * 4
}

// winogradWorkers returns how many tile workers the granted workspace
// supports: one per arena that fits after the base (shared spectral
// buffer) floats, capped at the engine's worker limit. At one worker the
// correlation runs on the calling goroutine alone (its SGEMM is a walk
// over the packed filter bank, not a blas call that could fork).
func winogradWorkers(tr *winograd.Transform, base int, ws []float32) int {
	fit := (len(ws) - base) / winogradArenaFloats(tr)
	if fit < 1 {
		fit = 1
	}
	return imin(MaxWorkers(), fit)
}

func runWinograd(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32, fused bool) error {
	tr := winogradTransformFor(op, cs, fused)
	switch op {
	case Forward:
		winogradCorrelate(tr, cs, x, w, y, alpha, beta, ws, fused, false)
	case BackwardData:
		// dX is the correlation of dY (padded by R-1-pad) with the rotated,
		// channel-swapped filter; reuse the forward engine on the
		// transformed problem.
		p := cs.Params.Normalized()
		if p.PadH > cs.Filt.R-1 || p.PadW > cs.Filt.S-1 {
			return fmt.Errorf("conv: winograd BackwardData requires pad < kernel size")
		}
		out := cs.OutShape()
		tcs := tensor.ConvShape{
			In:   tensor.Shape{N: cs.In.N, C: cs.Filt.K, H: out.H, W: out.W},
			Filt: tensor.Filter{K: cs.In.C, C: cs.Filt.K, R: cs.Filt.R, S: cs.Filt.S},
			Params: tensor.ConvParams{
				PadH: cs.Filt.R - 1 - p.PadH, PadW: cs.Filt.S - 1 - p.PadW,
				StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1,
			},
		}
		winogradCorrelate(tr, tcs, y, w, x, alpha, beta, ws, fused, true)
	case BackwardFilter:
		winogradBackwardFilter(tr, cs, x, w, y, alpha, beta, ws)
	}
	return nil
}

// wgCtx carries the Winograd kernel state shared by the stages. The
// serial path calls its methods directly, so the context stays on the
// stack and steady-state execution allocates nothing; run copies it once
// per fork for the workers.
//
// Every transform stage works on lane blocks (see winograd/lanes.go): a
// worker gathers up to winograd.Lanes tiles of one channel into
// [a][b][tile] rows, transforms them with the tiles in the SIMD lanes,
// and the result rows land contiguously in the spectral banks. The lane
// blocks and the SGEMM pack block are locals of the stage functions, as
// the pack blocks of the implicit-GEMM kernels are: they cost no
// workspace, and the per-worker arenas the workspace formulas reserve
// only count how many workers a grant admits.
type wgCtx struct {
	tr          *winograd.Transform
	p           tensor.ConvParams
	in, out     tensor.Shape
	x, w, y     []float32
	alpha, beta float32
	c, k        int
	tilesW      int
	tilesPer    int
	total       int
	rotSwap     bool

	// Shared spectral banks (layout differs per op; see the carve sites).
	// Rows of v and mm are [channel][bp tiles].
	u, v, mm []float32
	bp       int

	// Correlate's split of the tiles over workers: worker i owns tiles
	// [i*chunk, (i+1)*chunk) and walks them bw at a time through bank
	// columns [i*bw, (i+1)*bw). Fused, every worker has its own slice of
	// the 64-tile banks; non-fused the banks hold every tile, bw is chunk
	// and a tile's column is its index.
	chunk, bw int
}

// wgStage names a unit of Winograd work a worker can be handed a range of.
type wgStage int

const (
	wgFilter     wgStage = iota // correlate: blocks of packed U positions <- filter pairs
	wgTiles                     // correlate: a worker's tiles through all three stages
	wgInput                     // BackwardFilter: (channel, tile block) -> V
	wgGrad                      // BackwardFilter: (channel, tile block) of dY -> Wb
	wgSpectral                  // BackwardFilter: dU[e] = Wb[e] V[e]ᵀ
	wgFilterGrad                // BackwardFilter: blocks of filter pairs, dU -> dW
)

// run executes units [0, n) of stage st on up to workers workers.
func (g *wgCtx) run(workers int, st wgStage, n int) {
	if imin(workers, n) <= 1 {
		g.units(st, 0, n, 0)
		return
	}
	// Only this copy is captured (and heap-allocated) by the escaping
	// closure; the serial path above keeps g off the heap.
	gc := *g
	fork(workers, n, func(_, lo, hi int) { gc.units(st, lo, hi, 1) })
}

// units runs units [lo, hi) of stage st as this worker's phase windows.
// sgemmWorkers is the inner SGEMM's worker cap: 1 inside a fork, 0 (its
// own choice) on the serial path.
//
//ucudnn:hotpath
func (g *wgCtx) units(st wgStage, lo, hi, sgemmWorkers int) {
	t := prof.Enter()
	switch st {
	case wgFilter:
		g.filterBlocks(lo, hi)
		prof.Exit(phWinogradTransformIn, t)
	case wgTiles:
		for i := lo; i < hi; i++ {
			t = g.correlateTiles(i*g.chunk, imin((i+1)*g.chunk, g.total), i*g.bw, t)
		}
	case wgInput:
		g.inputBlocks(lo, hi)
		prof.Exit(phWinogradTransformIn, t)
	case wgGrad:
		g.gradBlocks(lo, hi)
		prof.Exit(phWinogradTransformIn, t)
	case wgSpectral:
		k, c, total := g.k, g.c, g.total
		for e := lo; e < hi; e++ { // dU[e] (k x c) = Wb[e] (k x total) * V[e]ᵀ
			blas.SgemmWorkersQuiet(sgemmWorkers, false, true, k, c, total,
				1, g.mm[e*k*total:(e+1)*k*total], total, g.v[e*c*total:(e+1)*c*total], total, 0,
				g.u[e*k*c:(e+1)*k*c], c)
		}
		prof.Exit(phWinogradElementwise, t)
	case wgFilterGrad:
		g.filterGradBlocks(lo, hi)
		prof.Exit(phWinogradTransformOut, t)
	}
}

// laneBlocks is the number of lane blocks n tiles (or filter pairs) fill.
//
//ucudnn:hotpath
func laneBlocks(n int) int { return ceilDiv(n, winograd.Lanes) }

// gatherTiles fills blk with rows x rows tiles [p0, p0+cnt) of channel ch
// of data (shape s): tile (th, tw) of a sample starts at
// (th*m-padH, tw*m-padW), and what lies outside the plane reads as zero.
// The walk is by runs of tiles that share a tile row: per tile element
// (a, b) a run is one strided row copy, and which of its tiles hang over
// the left and right borders is worked out once per run and column b.
//
//ucudnn:hotpath
func (g *wgCtx) gatherTiles(blk *winograd.LaneBlock, data []float32, s tensor.Shape, ch, rows, padH, padW, p0, cnt int) {
	ls, m := winograd.LaneStride(cnt), g.tr.M
	for t0 := 0; t0 < cnt; {
		pp := p0 + t0
		nn, th, tw0 := pp/g.tilesPer, (pp%g.tilesPer)/g.tilesW, pp%g.tilesW
		run := imin(g.tilesW-tw0, cnt-t0)
		plane := data[(nn*s.C+ch)*s.H*s.W : (nn*s.C+ch+1)*s.H*s.W]
		// Tile t of the run reads column iw0+t*m for element column b:
		// inside the plane for t in [lo[b], hi[b]).
		var lo, hi [winograd.MaxAlpha]int
		for b := 0; b < rows; b++ {
			iw0 := tw0*m - padW + b
			l, h := 0, run
			for l < h && iw0+l*m < 0 {
				l++
			}
			for h > l && iw0+(h-1)*m >= s.W {
				h--
			}
			lo[b], hi[b] = l, h
		}
		for a := 0; a < rows; a++ {
			ih := th*m - padH + a
			if uint(ih) >= uint(s.H) {
				for b := 0; b < rows; b++ {
					clear(blk[(a*rows+b)*ls+t0 : (a*rows+b)*ls+t0+run])
				}
				continue
			}
			row := plane[ih*s.W : (ih+1)*s.W]
			for b := 0; b < rows; b++ {
				dst := blk[(a*rows+b)*ls+t0 : (a*rows+b)*ls+t0+run]
				l, h := lo[b], hi[b]
				clear(dst[:l])
				if l < h {
					gatherStrided(dst[l:h], row[tw0*m-padW+b+l*m:], m)
				}
				clear(dst[h:])
			}
		}
		t0 += run
	}
}

// gatherStrided copies src[t*step] to dst[t]. It is its own function, and
// stays one, so that its loop gets registers to itself: inlined into the
// tile walk it spills its counters every iteration.
//
//go:noinline
//ucudnn:hotpath
func gatherStrided(dst, src []float32, step int) {
	j := 0
	for t := range dst {
		dst[t] = src[j]
		j += step
	}
}

// blendStrided is gatherStrided's converse with the output blend:
// dst[t*step] = alpha*src[t] + beta*dst[t*step].
//
//go:noinline
//ucudnn:hotpath
func blendStrided(dst, src []float32, step int, alpha, beta float32) {
	j := 0
	if beta == 0 {
		for _, v := range src {
			dst[j] = alpha * v
			j += step
		}
		return
	}
	for _, v := range src {
		dst[j] = alpha*v + beta*dst[j]
		j += step
	}
}

// scatterTiles blends the m x m output tiles [p0, p0+cnt) of channel ch in
// blk into y, clipping the tiles that overhang the plane.
//
//ucudnn:hotpath
func (g *wgCtx) scatterTiles(blk *winograd.LaneBlock, ch, p0, cnt int) {
	ls, m, s := winograd.LaneStride(cnt), g.tr.M, g.out
	for t0 := 0; t0 < cnt; {
		pp := p0 + t0
		nn, th, tw0 := pp/g.tilesPer, (pp%g.tilesPer)/g.tilesW, pp%g.tilesW
		run := imin(g.tilesW-tw0, cnt-t0)
		plane := g.y[(nn*s.C+ch)*s.H*s.W : (nn*s.C+ch+1)*s.H*s.W]
		for a := 0; a < m && th*m+a < s.H; a++ {
			row := plane[(th*m+a)*s.W : (th*m+a+1)*s.W]
			for b := 0; b < m; b++ {
				// Tile t of the run writes column ow0 + t*m.
				ow0 := tw0*m + b
				n := imin(imax(ceilDiv(s.W-ow0, m), 0), run)
				if n > 0 {
					blendStrided(row[ow0:], blk[(a*m+b)*ls+t0:(a*m+b)*ls+t0+n], m, g.alpha, g.beta)
				}
			}
		}
		t0 += run
	}
}

// uPair is the filter pair (kk, cc) whose spectral components sit at
// position q of their k*c floats of the U bank. The whole MR-row panels
// are stored the way blas.PackA would pack the k x c matrix — kc-blocks in
// order, each holding its panels as [kb][MR] — so the filter bank is
// packed once per call, by the transform's own stores, and every tile
// block's SGEMM reads it as is. The k%MR rows of a partial last panel
// stay row-major behind them: its zero padding has no room in the bytes
// Workspace reports, so that one panel is packed per product (see
// spectralGemm).
//
//ucudnn:hotpath
func (g *wgCtx) uPair(q int) (kk, cc int) {
	pf := g.k &^ (blas.MR - 1)
	if q >= pf*g.c {
		return q / g.c, q % g.c
	}
	k0 := q / (pf * blas.KC) * blas.KC
	q -= pf * k0
	kb := imin(blas.KC, g.c-k0)
	return q/(kb*blas.MR)*blas.MR + q%blas.MR, k0 + q%(kb*blas.MR)/blas.MR
}

// filterBlocks transforms lane blocks [lo, hi) of filter pairs into the
// packed bank. The lanes of a block are consecutive bank positions, so a
// spectral row of the block is one contiguous store into U[e].
//
//ucudnn:hotpath
func (g *wgCtx) filterBlocks(lo, hi int) {
	var gb, tmp winograd.LaneBlock
	rr, kc := g.tr.R*g.tr.R, g.k*g.c
	for blk := lo; blk < hi; blk++ {
		q0 := blk * winograd.Lanes
		cnt := imin(winograd.Lanes, kc-q0)
		ls := winograd.LaneStride(cnt)
		for t := 0; t < cnt; t++ {
			kk, cc := g.uPair(q0 + t)
			if g.rotSwap {
				// The transformed problem's filter [kk = orig c][cc = orig k],
				// rotated 180 degrees: the taps in reverse.
				src := g.w[(cc*g.k+kk)*rr : (cc*g.k+kk+1)*rr]
				for ab, v := range src {
					gb[(rr-1-ab)*ls+t] = v
				}
			} else {
				src := g.w[(kk*g.c+cc)*rr : (kk*g.c+cc+1)*rr]
				for ab, v := range src {
					gb[ab*ls+t] = v
				}
			}
		}
		g.tr.FilterLanes(g.u[q0:], kc, &gb, cnt, &tmp)
	}
}

// correlateTiles takes tiles [lo, hi) through the three stages, bw tiles
// at a time, in bank columns [col0, col0+bw). The stages of a tile block
// depend on nothing but the block and the finished filter bank, so
// workers never meet: one fork per call, however many blocks there are.
// t is the open phase window; the window open at the end is returned.
//
//ucudnn:hotpath
func (g *wgCtx) correlateTiles(lo, hi, col0 int, t int64) int64 {
	var blk, tmp winograd.LaneBlock
	var packB [blas.KC * blas.NC]float32
	tr, bp := g.tr, g.bp
	for p0 := lo; p0 < hi; p0 += g.bw {
		cnt := imin(g.bw, hi-p0)
		for cc := 0; cc < g.c; cc++ { // input tiles: V[e][cc*bp + col]
			for t0 := 0; t0 < cnt; t0 += winograd.Lanes {
				w := imin(winograd.Lanes, cnt-t0)
				g.gatherTiles(&blk, g.x, g.in, cc, tr.Alpha, g.p.PadH, g.p.PadW, p0+t0, w)
				tr.InputLanes(g.v[cc*bp+col0+t0:], g.c*bp, &blk, w, &tmp)
			}
		}
		t = prof.Next(phWinogradTransformIn, t)
		for e := 0; e < tr.Alpha*tr.Alpha; e++ { // M[e] = U[e] * V[e]
			g.spectralGemm(packB[:], e, col0, cnt)
		}
		t = prof.Next(phWinogradElementwise, t)
		for kk := 0; kk < g.k; kk++ { // inverse transforms and scatter
			for t0 := 0; t0 < cnt; t0 += winograd.Lanes {
				w := imin(winograd.Lanes, cnt-t0)
				tr.OutputLanes(&blk, g.mm[kk*bp+col0+t0:], g.k*bp, w, &tmp)
				g.scatterTiles(&blk, kk, p0+t0, w)
			}
		}
		t = prof.Next(phWinogradTransformOut, t)
	}
	return t
}

// spectralGemm multiplies spectral component e of the filter and input
// banks over cnt bank columns from col0: M[e] (k x cnt) = U[e] (k x c) *
// V[e] (c x cnt) — blas's sgemmPackedRows loop nest over the bank packed
// by filterBlocks, so every M element is SgemmWorkers's chain: per
// kc-block a sum from zero in c order, blocks added in order.
//
//ucudnn:hotpath
func (g *wgCtx) spectralGemm(packB []float32, e, col0, cnt int) {
	k, c, bp := g.k, g.c, g.bp
	pf := k &^ (blas.MR - 1)
	ue := g.u[e*k*c : (e+1)*k*c]
	ve := g.v[e*c*bp : (e+1)*c*bp]
	me := g.mm[e*k*bp : (e+1)*k*bp]
	var tail [blas.KC * blas.MR]float32
	for j0 := 0; j0 < cnt; j0 += blas.NC {
		jb := imin(blas.NC, cnt-j0)
		for k0 := 0; k0 < c; k0 += blas.KC {
			kb := imin(blas.KC, c-k0)
			blas.PackBPanels(packB, false, ve, bp, k0, kb, col0+j0, jb)
			for i0 := 0; i0 < pf; i0 += blas.MC {
				blas.KernelBlock(ue[pf*k0+i0/blas.MR*(kb*blas.MR):], packB, imin(blas.MC, pf-i0), jb, kb, k0 == 0, 0, me, i0*bp+col0+j0, bp)
			}
			if pf < k {
				blas.PackAPanels(tail[:], false, ue[pf*c:], c, 0, k-pf, k0, kb, 1)
				blas.KernelBlock(tail[:], packB, k-pf, jb, kb, k0 == 0, 0, me, pf*bp+col0+j0, bp)
			}
		}
	}
}

// winogradCorrelate computes out = alpha*corr(in, filt) + beta*out with
// the Winograd transform tr; cs describes the correlation being computed
// (for BackwardData, the transformed problem). When rotSwap is set, the
// filter is read rotated 180 degrees with its K/C axes swapped (the raw
// filter tensor retains its original KCRS layout).
func winogradCorrelate(tr *winograd.Transform, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32, fused, rotSwap bool) {
	out := cs.OutShape()
	m, alpha2 := tr.M, tr.Alpha*tr.Alpha
	c, k := cs.Filt.C, cs.Filt.K
	tilesH, tilesW, total := winogradTiles(m, out.H, out.W, cs.In.N)
	bp := total
	if fused && bp > fusedBlockTiles {
		bp = fusedBlockTiles
	}

	g := wgCtx{
		tr: tr, p: cs.Params.Normalized(), in: cs.In, out: out,
		x: x.Data, w: w.Data, y: y.Data, alpha: alpha, beta: beta, c: c, k: k,
		tilesW: tilesW, tilesPer: tilesH * tilesW, total: total, rotSwap: rotSwap,
		bp: bp,
	}
	g.u = ws[:alpha2*k*c]
	g.v = ws[alpha2*k*c : alpha2*(k*c+c*bp)]
	g.mm = ws[alpha2*(k*c+c*bp) : alpha2*(k*c+(c+k)*bp)]
	workers := winogradWorkers(tr, alpha2*(k*c+(c+k)*bp), ws)

	// Tiles go to workers in whole groups of eight lanes (one SGEMM column
	// panel). The fused banks hold bp tiles however many there are, so
	// there the workers also share out the bank columns, at least one
	// group each.
	g.bw = bp
	if fused && workers > 1 {
		g.bw = imax(bp/workers&^7, imin(bp, 8))
		workers = imin(workers, bp/g.bw)
	}
	g.chunk = ceilDiv(ceilDiv(total, workers), 8) * 8
	if !fused {
		g.bw = g.chunk
	}
	g.run(workers, wgFilter, laneBlocks(k*c))
	g.run(workers, wgTiles, ceilDiv(total, g.chunk))
}

// inputBlocks transforms units [lo, hi) of (channel, lane block of tiles)
// into the BackwardFilter bank V[e][cc*total + p].
//
//ucudnn:hotpath
func (g *wgCtx) inputBlocks(lo, hi int) {
	var blk, tmp winograd.LaneBlock
	total, nb := g.total, laneBlocks(g.total)
	for u := lo; u < hi; u++ {
		cc, t0 := u/nb, u%nb*winograd.Lanes
		w := imin(winograd.Lanes, total-t0)
		g.gatherTiles(&blk, g.x, g.in, cc, g.tr.Alpha, g.p.PadH, g.p.PadW, t0, w)
		g.tr.InputLanes(g.v[cc*total+t0:], g.c*total, &blk, w, &tmp)
	}
}

// gradBlocks maps units [lo, hi) of (output channel, lane block of
// output-gradient tiles) through the adjoint of the output transform into
// Wb[e][kk*total + p] (the mm bank in the BackwardFilter layout).
//
//ucudnn:hotpath
func (g *wgCtx) gradBlocks(lo, hi int) {
	var blk, tmp winograd.LaneBlock
	total, nb := g.total, laneBlocks(g.total)
	for u := lo; u < hi; u++ {
		kk, t0 := u/nb, u%nb*winograd.Lanes
		w := imin(winograd.Lanes, total-t0)
		g.gatherTiles(&blk, g.y, g.out, kk, g.tr.M, 0, 0, t0, w)
		g.tr.OutputAdjointLanes(g.mm[kk*total+t0:], g.k*total, &blk, w, &tmp)
	}
}

// filterGradBlocks maps lane blocks [lo, hi) of spectral accumulator
// pairs i = kk*c+cc back to filter space and blends them into dW.
//
//ucudnn:hotpath
func (g *wgCtx) filterGradBlocks(lo, hi int) {
	var gb, tmp winograd.LaneBlock
	rr, kc := g.tr.R*g.tr.R, g.k*g.c
	for blk := lo; blk < hi; blk++ {
		i0 := blk * winograd.Lanes
		cnt := imin(winograd.Lanes, kc-i0)
		ls := winograd.LaneStride(cnt)
		g.tr.FilterAdjointLanes(&gb, g.u[i0:], kc, cnt, &tmp)
		for t := 0; t < cnt; t++ {
			dw := g.w[(i0+t)*rr : (i0+t+1)*rr]
			for ab := range dw {
				blend(&dw[ab], gb[ab*ls+t], g.alpha, g.beta)
			}
		}
	}
}

// winogradBackwardFilter computes dW = alpha*grad + beta*dW using the
// exact adjoint of the Winograd forward tiling (non-fused only).
func winogradBackwardFilter(tr *winograd.Transform, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32) {
	out := cs.OutShape()
	m, alpha2 := tr.M, tr.Alpha*tr.Alpha
	c, k := cs.Filt.C, cs.Filt.K
	tilesH, tilesW, total := winogradTiles(m, out.H, out.W, cs.In.N)

	g := wgCtx{
		tr: tr, p: cs.Params.Normalized(), in: cs.In, out: out,
		x: x.Data, w: w.Data, y: y.Data, alpha: alpha, beta: beta, c: c, k: k,
		tilesW: tilesW, tilesPer: tilesH * tilesW, total: total,
	}
	// Input tiles, output-gradient tiles (mm), and the spectral
	// accumulator (u, row-major: it is this product's output).
	g.v = ws[:alpha2*c*total]
	g.mm = ws[alpha2*c*total : alpha2*(c+k)*total]
	g.u = ws[alpha2*(c+k)*total : alpha2*((c+k)*total+k*c)]
	workers := winogradWorkers(tr, alpha2*((c+k)*total+k*c), ws)

	g.run(workers, wgInput, c*laneBlocks(total))
	g.run(workers, wgGrad, k*laneBlocks(total))
	g.run(workers, wgSpectral, alpha2)
	g.run(workers, wgFilterGrad, laneBlocks(k*c))
}
