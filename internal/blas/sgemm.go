// Package blas implements the single-precision dense linear algebra
// kernels the convolution algorithms are lowered onto: a blocked,
// goroutine-parallel SGEMM and a few vector helpers. Only the row-major
// convention is supported, matching the repository's NCHW tensors.
package blas

import (
	"sync"

	"ucudnn/internal/prof"
)

// Profiler phases of the SGEMM kernel itself: panel packing (the A and
// B copies into the blocked layouts, alpha fused into the A-pack) and
// the register-tiled micro-kernel walk. The phased entry points record
// these so a profile can answer "is GEMM time data movement or FMAs?";
// callers that already wrap the whole call in their own phase window use
// the *Quiet variants to keep phase windows non-overlapping.
const (
	PhSgemmPack   prof.Phase = "ucudnn_ph_sgemm_pack"
	PhSgemmKernel prof.Phase = "ucudnn_ph_sgemm_kernel"
)

// KindSgemmKernel is exported for callers that drive KernelBlock with
// their own packers (conv's implicit GEMM) and time it as the same phase.
var (
	phSgemmPack     = prof.Register(PhSgemmPack)
	KindSgemmKernel = prof.Register(PhSgemmKernel)
)

// Register blocking of the micro-kernel: each tile computes an mr x nr
// block of C held in registers across the whole k extent of one cache
// block, so C is loaded and stored once per k-block instead of once per
// k step. Panels are zero-padded to full mr/nr width; the padded lanes
// compute zeros that the masked store discards.
//
// The 4x8 tile is sized to the AVX kernel: four YMM accumulators, one
// 8-wide B row load and four A broadcasts per k step. With AVX-512 the
// tile walk takes two adjacent nr panels at once as one 4x16 tile in
// four ZMM accumulators, and that body also stores C itself. The
// pure-Go fallback computes the 4x8 tile as four 2x4 quarters because
// the gc register allocator has only 15 usable XMM registers — 16
// scalar accumulators spill to the stack and run slower than no tiling
// at all. Every body accumulates every C element in the exact same k
// order (mul then add, no FMA contraction; the Go twins round each
// product explicitly so no compiler may fuse them), so their results
// are bitwise-identical.
const (
	mr = 4
	nr = 8
)

// The store forms of a finished tile (fuseBeta's three cases), as the
// AVX-512 body takes them: C = acc on a beta=0 first k-block, C += acc
// on a later block or beta=1, C = beta·C + acc otherwise.
const (
	tileStore = iota
	tileAdd
	tileScale
)

// Cache blocking: the micro-kernel walks an (mc x kc) packed A block
// against a (kc x nc) packed B panel, sized so the A block (~48 KiB)
// stays L2-resident and the kc * nr B panel (6 KiB) stays in L1 while
// the kernel streams over it.
const (
	mc = 64
	kc = 192
	nc = 160
)

// The blocking constants as seen by callers that run the sgemmRows loop
// nest themselves over KernelBlock: a packed A block is MC x KC in MR-row
// panels, a packed B block KC x NC in NR-column panels.
const (
	MR = mr
	NR = nr
	MC = mc
	KC = kc
	NC = nc
)

// Sgemm computes C = alpha * op(A) * op(B) + beta * C for row-major
// matrices, where op(X) is X or Xᵀ according to transA/transB.
//
// A is (m x k) after op, with leading dimension lda; B is (k x n) after
// op, with leading dimension ldb; C is (m x n) with leading dimension ldc.
//
//ucudnn:hotpath
func Sgemm(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	sgemmWorkers(true, 0, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// SgemmWorkers is Sgemm with an explicit cap on the goroutines used:
// workers <= 0 selects automatically (AutoWorkers: the kernel worker
// cap, dropping to one thread for small products), workers == 1 forces
// the serial path (callers that already parallelize across GEMM
// invocations use this to avoid oversubscription). Workers split the long side of C — rows when it is
// tall, columns when it is wide or a single row panel. Every element of
// C is accumulated in the same order regardless of the worker count and
// of the kernel its shape selects, so results are bit-identical across
// all settings.
//
//ucudnn:hotpath
func SgemmWorkers(workers int, transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	sgemmWorkers(true, workers, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// SgemmWorkersQuiet is SgemmWorkers without the pack/kernel phase
// windows, for callers whose own phase window already covers the call
// (overlapping windows would double-count attributed time).
//
//ucudnn:hotpath
func SgemmWorkersQuiet(workers int, transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	sgemmWorkers(false, workers, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

//ucudnn:hotpath
func sgemmWorkers(rec bool, workers int, transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	if m == 0 || n == 0 {
		return
	}
	checkDims(transA, transB, m, n, k, a, lda, b, ldb, c, ldc)
	if k == 0 || alpha == 0 {
		scaleC(m, n, beta, c, ldc)
		return
	}

	if workers <= 0 {
		workers = AutoWorkers(int64(m) * int64(n) * int64(k))
	}
	// Fork over the long side, in whole register-tile panels. A worker
	// packs every panel of the operand it does not split, so splitting
	// rows repeats the B pack per worker and splitting columns the A pack:
	// the short side is the cheap one to repeat. A single row panel
	// (m <= mr) has no rows to hand out at all.
	byCols := m <= mr || n > m
	units := (m + mr - 1) / mr
	if byCols {
		units = (n + nr - 1) / nr
	}
	if workers > units {
		workers = units
	}
	if workers <= 1 {
		sgemmChunk(rec, byCols, 0, units, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	chunk := (units + workers - 1) / workers
	launched := (units + chunk - 1) / chunk
	ls := prof.LaunchStart()
	var wg sync.WaitGroup
	wg.Add(launched - 1)
	for w := 1; w < launched; w++ {
		//ucudnn:allow hotpath -- the multi-worker path forks by design; callers on the zero-alloc path pass workers==1
		go func(w int) {
			defer wg.Done()
			bs := prof.WorkerStart()
			sgemmChunk(rec, byCols, w, chunk, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
			prof.WorkerEnd(w, bs)
		}(w)
	}
	bs := prof.WorkerStart()
	sgemmChunk(rec, byCols, 0, chunk, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	prof.WorkerEnd(0, bs)
	wg.Wait()
	// With rec the workers' own pack/kernel windows are the attribution of
	// this region, so their busy time is its measured time: a top-level
	// launch. A Quiet caller's enclosing phase window already covers the
	// region as wall time, so only the load imbalance is recorded (see
	// prof's accounting model).
	if rec {
		prof.LaunchEnd(launched, ls)
	} else {
		prof.LaunchEndNested(launched, ls)
	}
}

// sgemmChunk computes worker w's share of the product: chunk whole
// panels of columns (byCols) or of rows, through the kernel the shape
// calls for.
//
//ucudnn:hotpath
func sgemmChunk(rec, byCols bool, w, chunk int, transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	mLo, mHi, nLo, nHi := 0, m, 0, n
	if byCols {
		nLo = w * chunk * nr
		nHi = min(nLo+chunk*nr, n)
	} else {
		mLo = w * chunk * mr
		mHi = min(mLo+chunk*mr, m)
	}
	if m <= mr {
		sgemmSkinny(rec, transA, transB, m, nLo, nHi, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	sgemmRows(rec, transA, transB, mLo, mHi, nLo, nHi, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// PackAFloats returns the float32 length of the packed form of an
// (m x k) A operand: rows padded up to a multiple of mr.
//
//ucudnn:hotpath
func PackAFloats(m, k int) int {
	return ((m + mr - 1) / mr) * mr * k
}

// PackA packs alpha * op(A) — (m x k) after op — into dst, which must
// hold PackAFloats(m, k) elements, in the micro-kernel's blocked layout:
// k-blocks of kc in order, each holding row panels of mr rows stored
// [kb][mr], zero-padded in the row direction. A matrix packed once can
// be multiplied against many B operands via SgemmPackedA — the weight
// matrix of a convolution is packed once per Run and reused across every
// sample and micro-batch.
//
//ucudnn:hotpath
func PackA(dst []float32, transA bool, m, k int, alpha float32, a []float32, lda int) {
	if m < 0 || k < 0 {
		panic("blas: negative dimension")
	}
	if len(dst) < PackAFloats(m, k) {
		panic("blas: PackA dst too short")
	}
	arows, acols := m, k
	if transA {
		arows, acols = k, m
	}
	if lda < max(1, acols) {
		panic("blas: bad leading dimension")
	}
	if arows > 0 && acols > 0 && len(a) < (arows-1)*lda+acols {
		panic("blas: A too short")
	}
	t := prof.Enter()
	pm := ((m + mr - 1) / mr) * mr
	for k0 := 0; k0 < k; k0 += kc {
		kb := min(kc, k-k0)
		PackAPanels(dst[pm*k0:], transA, a, lda, 0, m, k0, kb, alpha)
	}
	prof.Exit(phSgemmPack, t)
}

// SgemmPackedA computes C = PA * op(B) + beta * C where PA is the packed
// form of alpha * op(A) produced by PackA for the same (m, k). Worker
// chunks are rounded to whole mr panels; every C element still sees the
// exact k-order accumulation of the serial path, so results are
// bit-identical to SgemmWorkers at every worker count.
//
//ucudnn:hotpath
func SgemmPackedA(workers int, pa []float32, transB bool, m, n, k int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	if m == 0 || n == 0 {
		return
	}
	if len(pa) < PackAFloats(m, k) {
		panic("blas: packed A too short")
	}
	checkDims(false, transB, 0, n, k, nil, max(1, k), b, ldb, c, ldc)
	if len(c) < (m-1)*ldc+n {
		panic("blas: C too short")
	}
	if k == 0 {
		scaleC(m, n, beta, c, ldc)
		return
	}
	panels := (m + mr - 1) / mr
	if workers <= 0 {
		workers = AutoWorkers(int64(m) * int64(n) * int64(k))
	}
	if workers > panels {
		workers = panels
	}
	if workers <= 1 {
		sgemmPackedRows(true, pa, 0, m, m, n, k, transB, b, ldb, beta, c, ldc)
		return
	}
	ls := prof.LaunchStart()
	var wg sync.WaitGroup
	chunk := ((panels + workers - 1) / workers) * mr
	launched := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		launched++
		wg.Add(1)
		//ucudnn:allow hotpath -- the multi-worker path forks by design; callers on the zero-alloc path pass workers==1
		go func(w, lo, hi int) {
			defer wg.Done()
			bs := prof.WorkerStart()
			sgemmPackedRows(true, pa, lo, hi, m, n, k, transB, b, ldb, beta, c, ldc)
			prof.WorkerEnd(w, bs)
		}(w, lo, hi)
	}
	wg.Wait()
	// The workers self-report their phases: a top-level launch (see
	// sgemmWorkers).
	prof.LaunchEnd(launched, ls)
}

//ucudnn:hotpath
func checkDims(transA, transB bool, m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic("blas: negative dimension")
	}
	arows, acols := m, k
	if transA {
		arows, acols = k, m
	}
	brows, bcols := k, n
	if transB {
		brows, bcols = n, k
	}
	if lda < max(1, acols) || ldb < max(1, bcols) || ldc < max(1, n) {
		panic("blas: bad leading dimension")
	}
	if arows > 0 && acols > 0 && len(a) < (arows-1)*lda+acols {
		panic("blas: A too short")
	}
	if brows > 0 && bcols > 0 && len(b) < (brows-1)*ldb+bcols {
		panic("blas: B too short")
	}
	if m > 0 && len(c) < (m-1)*ldc+n {
		panic("blas: C too short")
	}
}

//ucudnn:hotpath
func scaleC(m, n int, beta float32, c []float32, ldc int) {
	if beta == 1 {
		return
	}
	for i := 0; i < m; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

// sgemmRows computes rows [mLo, mHi), columns [nLo, nHi) of
// C = alpha*op(A)*op(B) + beta*C with cache blocking: B panels are
// packed once per (j0, k0) block — hoisted out of the row-block loop —
// and beta is fused into the micro-kernel's store of the first k-block.
//
//ucudnn:hotpath
func sgemmRows(rec bool, transA, transB bool, mLo, mHi, nLo, nHi, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	// One continuous Enter/Next chain: every phase window ends exactly
	// where the next begins, so the whole walk is attributed with no
	// internal gaps (loop bookkeeping lands in the adjacent phase). It
	// opens before the pack blocks so that clearing them counts as packing.
	var t int64
	if rec {
		t = prof.Enter()
	}
	var packA [mc * kc]float32
	var packB [kc * nc]float32
	for j0 := nLo; j0 < nHi; j0 += nc {
		jb := min(nc, nHi-j0)
		for k0 := 0; k0 < k; k0 += kc {
			kb := min(kc, k-k0)
			PackBPanels(packB[:], transB, b, ldb, k0, kb, j0, jb)
			if rec {
				t = prof.Next(phSgemmPack, t)
			}
			first := k0 == 0
			for i0 := mLo; i0 < mHi; i0 += mc {
				ib := min(mc, mHi-i0)
				PackAPanels(packA[:], transA, a, lda, i0, ib, k0, kb, alpha)
				if rec {
					t = prof.Next(phSgemmPack, t)
				}
				KernelBlock(packA[:], packB[:], ib, jb, kb, first, beta, c, i0*ldc+j0, ldc)
				if rec {
					t = prof.Next(KindSgemmKernel, t)
				}
			}
		}
	}
}

// sgemmPackedRows is sgemmRows over a pre-packed A (PackA layout): the
// A-pack is skipped entirely and panels are read at their global
// offsets. mLo must be a multiple of mr.
//
//ucudnn:hotpath
func sgemmPackedRows(rec bool, pa []float32, mLo, mHi, m, n, k int, transB bool, b []float32, ldb int, beta float32, c []float32, ldc int) {
	pm := ((m + mr - 1) / mr) * mr
	var t int64
	if rec {
		t = prof.Enter()
	}
	var packB [kc * nc]float32
	for j0 := 0; j0 < n; j0 += nc {
		jb := min(nc, n-j0)
		for k0 := 0; k0 < k; k0 += kc {
			kb := min(kc, k-k0)
			PackBPanels(packB[:], transB, b, ldb, k0, kb, j0, jb)
			if rec {
				t = prof.Next(phSgemmPack, t)
			}
			first := k0 == 0
			for i0 := mLo; i0 < mHi; i0 += mc {
				ib := min(mc, mHi-i0)
				KernelBlock(pa[pm*k0+(i0/mr)*(kb*mr):], packB[:], ib, jb, kb, first, beta, c, i0*ldc+j0, ldc)
				if rec {
					t = prof.Next(KindSgemmKernel, t)
				}
			}
		}
	}
}

// PackBPanels packs op(B)[k0:k0+kb, j0:j0+jb] into column panels of nr:
// panel jp holds columns [jp*nr, jp*nr+nr) stored [kb][nr], zero-padded
// past jb so the micro-kernel never branches on column width.
//
//ucudnn:hotpath
func PackBPanels(pack []float32, transB bool, b []float32, ldb int, k0, kb, j0, jb int) {
	for jt := 0; jt < jb; jt += nr {
		dst := pack[(jt/nr)*(kb*nr):]
		jw := min(nr, jb-jt)
		if !transB && jw == nr {
			for p := 0; p < kb; p++ {
				src := (*[nr]float32)(b[(k0+p)*ldb+j0+jt:])
				d := (*[nr]float32)(dst[p*nr:])
				d[0] = src[0]
				d[1] = src[1]
				d[2] = src[2]
				d[3] = src[3]
				d[4] = src[4]
				d[5] = src[5]
				d[6] = src[6]
				d[7] = src[7]
			}
		} else if !transB {
			for p := 0; p < kb; p++ {
				src := b[(k0+p)*ldb+j0+jt:]
				d := dst[p*nr : p*nr+nr]
				for j := 0; j < jw; j++ {
					d[j] = src[j]
				}
				for j := jw; j < nr; j++ {
					d[j] = 0
				}
			}
		} else {
			for p := 0; p < kb; p++ {
				d := dst[p*nr : p*nr+nr]
				for j := 0; j < jw; j++ {
					d[j] = b[(j0+jt+j)*ldb+(k0+p)]
				}
				for j := jw; j < nr; j++ {
					d[j] = 0
				}
			}
		}
	}
}

// PackAPanels packs alpha * op(A)[i0:i0+ib, k0:k0+kb] into row panels of
// mr: panel ip holds rows [ip*mr, ip*mr+mr) stored [kb][mr], zero-padded
// past ib. The padded lanes make the micro-kernel's FMA body width-
// independent; alpha is fused here so the kernel never multiplies by it.
// With AVX a full no-trans panel is packed eight k at a time (four row
// loads scaled by alpha, transposed in registers); the k tail and
// partial panels take the scalar loop, which computes the same products.
//
//ucudnn:hotpath
func PackAPanels(pack []float32, transA bool, a []float32, lda int, i0, ib, k0, kb int, alpha float32) {
	for it := 0; it < ib; it += mr {
		dst := pack[(it/mr)*(kb*mr):]
		iw := min(mr, ib-it)
		if !transA {
			p0 := 0
			if useAVX && iw == mr && kb >= 8 {
				p0 = kb &^ 7
				row := (i0 + it) * lda
				src := a[row+k0 : row+(mr-1)*lda+k0+p0]
				packA4x8AVX(&dst[:p0*mr][0], &src[0], lda, p0/8, alpha)
			}
			for i := 0; i < iw; i++ {
				src := a[(i0+it+i)*lda+k0:]
				for p := p0; p < kb; p++ {
					dst[p*mr+i] = alpha * src[p]
				}
			}
			for i := iw; i < mr; i++ {
				for p := 0; p < kb; p++ {
					dst[p*mr+i] = 0
				}
			}
		} else {
			for p := 0; p < kb; p++ {
				row := a[(k0+p)*lda+i0+it:]
				d := dst[p*mr : p*mr+mr]
				for i := 0; i < iw; i++ {
					d[i] = alpha * row[i]
				}
				for i := iw; i < mr; i++ {
					d[i] = 0
				}
			}
		}
	}
}

// KernelBlock walks the register-tile grid of one (ib x jb) C block,
// multiplying packed A panels (base pa, panel stride kb*mr) against
// packed B panels. Each tile is accumulated from zero over the whole kb
// extent, then stored once, fusing beta on the first k-block and masking
// the zero-padded edge lanes. With AVX-512, full four-row tiles over two
// adjacent B panels run as one 4x16 tile that also stores C; the last
// odd panel and a partial row tile take the 4x8 walk (AVX kernel, or the
// generic quarters without AVX). All bodies are bitwise-identical. Each
// C element's accumulation is a single strict k-order chain, so results
// do not depend on how rows or columns are chunked across workers.
//
//ucudnn:hotpath
func KernelBlock(pa, pb []float32, ib, jb, kb int, first bool, beta float32, c []float32, off, ldc int) {
	jt := 0
	if useAVX512 {
		mode := tileAdd
		if first && beta != 1 {
			mode = tileScale
			if beta == 0 {
				mode = tileStore
			}
		}
		for ; jb-jt >= 2*nr; jt += 2 * nr {
			bp := pb[(jt/nr)*(kb*nr) : (jt/nr+2)*(kb*nr)]
			it := 0
			for ; ib-it >= mr; it += mr {
				ap := pa[(it/mr)*(kb*mr) : (it/mr+1)*(kb*mr)]
				co := off + it*ldc + jt
				ct := c[co : co+(mr-1)*ldc+2*nr]
				sgemmTile16AVX512(&ap[0], &bp[0], kb, &ct[0], ldc, mode, beta)
			}
			if it < ib {
				kernelPanel(pa, bp, it, ib, kb, nr, first, beta, c, off+jt, ldc)
				kernelPanel(pa, bp[kb*nr:], it, ib, kb, nr, first, beta, c, off+jt+nr, ldc)
			}
		}
	}
	for ; jt < jb; jt += nr {
		kernelPanel(pa, pb[(jt/nr)*(kb*nr):], 0, ib, kb, min(nr, jb-jt), first, beta, c, off+jt, ldc)
	}
}

// kernelPanel is KernelBlock's 4x8 walk down one B panel (jw live
// columns at C offset off) over rows [itLo, ib).
//
//ucudnn:hotpath
func kernelPanel(pa, bp []float32, itLo, ib, kb, jw int, first bool, beta float32, c []float32, off, ldc int) {
	var acc [mr * nr]float32
	for it := itLo; it < ib; it += mr {
		ap := pa[(it/mr)*(kb*mr):]
		if useAVX {
			sgemmTileAVX(&ap[0], &bp[0], kb, &acc)
		} else {
			sgemmTileGeneric(ap, bp, kb, &acc)
		}
		co := off + it*ldc
		if ib-it >= mr && jw == nr {
			if !first || beta == 1 {
				for i := 0; i < mr; i++ {
					row := (*[nr]float32)(c[co+i*ldc:])
					av := (*[nr]float32)(acc[i*nr:])
					for j := 0; j < nr; j++ {
						row[j] += av[j]
					}
				}
			} else if beta == 0 {
				for i := 0; i < mr; i++ {
					row := (*[nr]float32)(c[co+i*ldc:])
					av := (*[nr]float32)(acc[i*nr:])
					for j := 0; j < nr; j++ {
						row[j] = av[j]
					}
				}
			} else {
				for i := 0; i < mr; i++ {
					row := (*[nr]float32)(c[co+i*ldc:])
					av := (*[nr]float32)(acc[i*nr:])
					for j := 0; j < nr; j++ {
						row[j] = float32(beta*row[j]) + av[j]
					}
				}
			}
			continue
		}
		iw := min(mr, ib-it)
		for i := 0; i < iw; i++ {
			row := c[co+i*ldc : co+i*ldc+jw]
			for j := range row {
				row[j] = fuseBeta(row[j], acc[i*nr+j], first, beta)
			}
		}
	}
}

// fuseBeta is the store of one finished k-block sum v into the C element
// holding cv: beta applies on the first k-block only, later blocks add.
//
//ucudnn:hotpath
func fuseBeta(cv, v float32, first bool, beta float32) float32 {
	if !first || beta == 1 {
		return cv + v
	}
	if beta == 0 {
		return v
	}
	return float32(beta*cv) + v
}

// sgemmTileGeneric is the pure-Go form of sgemmTileAVX: one mr x nr tile
// accumulated from zero, computed as 2x4 quarters so the accumulators
// stay in the gc register allocator's 15 usable XMM registers. Every C
// element sees the same strict k-order mul-then-add chain as the AVX
// kernel, so the two paths are bitwise-identical. Go lets a compiler
// fuse x*y + z (the arm64 backend does); the explicit float32 rounding
// of each product forbids that.
//
//ucudnn:hotpath
func sgemmTileGeneric(ap, bp []float32, kb int, acc *[mr * nr]float32) {
	for ro := 0; ro < mr; ro += 2 {
		for co := 0; co < nr; co += 4 {
			var c00, c01, c02, c03 float32
			var c10, c11, c12, c13 float32
			qa, qb := ro, co
			for p := 0; p < kb; p++ {
				av := (*[2]float32)(ap[qa:])
				bv := (*[4]float32)(bp[qb:])
				a0, a1 := av[0], av[1]
				b0, b1 := bv[0], bv[1]
				c00 += float32(a0 * b0)
				c10 += float32(a1 * b0)
				c01 += float32(a0 * b1)
				c11 += float32(a1 * b1)
				b2, b3 := bv[2], bv[3]
				c02 += float32(a0 * b2)
				c12 += float32(a1 * b2)
				c03 += float32(a0 * b3)
				c13 += float32(a1 * b3)
				qa += mr
				qb += nr
			}
			acc[ro*nr+co], acc[ro*nr+co+1], acc[ro*nr+co+2], acc[ro*nr+co+3] = c00, c01, c02, c03
			acc[(ro+1)*nr+co], acc[(ro+1)*nr+co+1], acc[(ro+1)*nr+co+2], acc[(ro+1)*nr+co+3] = c10, c11, c12, c13
		}
	}
}

// Saxpy computes y += alpha * x.
//
//ucudnn:hotpath
func Saxpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("blas: Saxpy length mismatch")
	}
	for i := range x {
		y[i] += float32(alpha * x[i])
	}
}

// Sdot returns the dot product of x and y.
//
//ucudnn:hotpath
func Sdot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic("blas: Sdot length mismatch")
	}
	var s float32
	for i := range x {
		s += float32(x[i] * y[i])
	}
	return s
}

//ucudnn:hotpath
func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

//ucudnn:hotpath
func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
