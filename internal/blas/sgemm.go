// Package blas implements the single-precision dense linear algebra
// kernels the convolution algorithms are lowered onto: a blocked,
// goroutine-parallel SGEMM and a few vector helpers. Only the row-major
// convention is supported, matching the repository's NCHW tensors.
package blas

import "ucudnn/internal/prof"

// Profiler phases of the SGEMM kernel itself: panel packing (the A and
// B copies into the blocked layouts, alpha fused into the A-pack) and
// the register-tiled micro-kernel walk. Every SGEMM records these, on
// whichever worker runs it, so a profile can answer "is GEMM time data
// movement or FMAs?"; a caller never wraps an SGEMM in a phase window of
// its own.
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
// The 4x16 tile is sized to the AVX+FMA kernel: eight YMM chains (two
// per row), enough independent fused multiply-adds in flight to cover
// the FMA latency on both ports. With AVX-512 the tile walk takes two
// adjacent nr panels at once as one 4x32 tile in eight ZMM chains, each
// B row a contiguous 64-byte load, and that body also stores C itself.
// The pure-Go fallback computes the tile as 2x4 quarters because the gc
// register allocator has only 15 usable XMM registers — 16 scalar
// accumulators spill to the stack and run slower than no tiling at all.
//
// The rounding contract: every body accumulates every C element as one
// k-order fused chain from +0 within each kc block, s = fma(a_p, b_p, s),
// with a*b+s rounded once per step (VFMADD231PS; fma32 in the Go twins).
// Each finished block is then stored by fuseBeta, which is not fused.
// So the bodies' results are bitwise-identical whatever the shape, the
// worker count or the CPU picks.
const (
	mr = 4
	nr = 16
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
// stays L2-resident and the kc * nr B panels a tile reads (12 KiB each)
// stay in L1 while the kernel streams over them.
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
func Sgemm(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	SgemmWorkers(0, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// SgemmWorkers is Sgemm with an explicit cap on the workers used:
// workers <= 0 selects automatically (AutoWorkers: the kernel worker
// cap, dropping to one thread for small products), workers == 1 forces
// the serial path: an SGEMM inside a kernel's own launch runs on the
// worker that calls it. Workers split the long side of C — rows when it
// is tall, columns when it is wide or a single row panel — in one Fork.
// Every element of C is accumulated in the same order regardless of the
// worker count and of the kernel its shape selects, so results are
// bit-identical across all settings.
func SgemmWorkers(workers int, transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
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
	// The serial call stays a plain call: through Fork it would build
	// the escaping closure below on every call.
	if min(workers, units) <= 1 {
		sgemmChunk(byCols, 0, units, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	// The workers record their own pack/kernel windows: the launch's busy
	// time is what they are held against.
	Fork(workers, units, func(_, lo, hi int) {
		sgemmChunk(byCols, lo, hi, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	})
}

// sgemmChunk computes panels [lo, hi) of the product — whole panels of
// columns (byCols) or of rows — through the kernel the shape calls for.
func sgemmChunk(byCols bool, lo, hi int, transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	mLo, mHi, nLo, nHi := 0, m, 0, n
	if byCols {
		nLo, nHi = lo*nr, min(hi*nr, n)
	} else {
		mLo, mHi = lo*mr, min(hi*mr, m)
	}
	if m <= mr {
		sgemmSkinny(transA, transB, m, nLo, nHi, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	sgemmRows(transA, transB, mLo, mHi, nLo, nHi, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// PackAFloats returns the float32 length of the packed form of an
// (m x k) A operand: rows padded up to a multiple of mr.
func PackAFloats(m, k int) int {
	return ((m + mr - 1) / mr) * mr * k
}

// PackA packs alpha * op(A) — (m x k) after op — into dst, which must
// hold PackAFloats(m, k) elements, in the micro-kernel's blocked layout:
// k-blocks of kc in order, each holding row panels of mr rows stored
// [kb][mr], zero-padded in the row direction. A matrix packed once can
// be multiplied against many B operands via SgemmPackedARows — the weight
// matrix of a convolution is packed once per Run and reused across every
// sample and micro-batch.
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

// SgemmPackedARows computes C rows [lo, hi) of C = PA * op(B) + beta * C
// on the calling goroutine, where PA is the packed form of alpha * op(A)
// produced by PackA for the whole (m, k): C[lo:hi] = PA[lo:hi] * op(B) +
// beta * C[lo:hi]. lo must be a multiple of MR; (0, m) is the whole
// product. Each element sees the exact k-order accumulation of
// SgemmWorkers, so callers can hand disjoint row ranges to workers of
// their own and get the same bits.
func SgemmPackedARows(lo, hi int, pa []float32, transB bool, m, n, k int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	if lo < 0 || hi > m || lo%mr != 0 {
		panic("blas: bad packed row range")
	}
	if lo >= hi || n == 0 {
		return
	}
	if len(pa) < PackAFloats(m, k) {
		panic("blas: packed A too short")
	}
	checkDims(false, transB, 0, n, k, nil, max(1, k), b, ldb, c, ldc)
	if len(c) < (hi-1)*ldc+n {
		panic("blas: C too short")
	}
	if k == 0 {
		scaleC(hi-lo, n, beta, c[lo*ldc:], ldc)
		return
	}
	sgemmPackedRows(pa, lo, hi, m, n, k, transB, b, ldb, beta, c, ldc)
}

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
func sgemmRows(transA, transB bool, mLo, mHi, nLo, nHi, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	// One continuous Enter/Next chain: every phase window ends exactly
	// where the next begins, so the whole walk is attributed with no
	// internal gaps (loop bookkeeping lands in the adjacent phase). It
	// opens before the pack blocks so that clearing them counts as packing.
	t := prof.Enter()
	var packA [mc * kc]float32
	var packB [kc * nc]float32
	for j0 := nLo; j0 < nHi; j0 += nc {
		jb := min(nc, nHi-j0)
		for k0 := 0; k0 < k; k0 += kc {
			kb := min(kc, k-k0)
			PackBPanels(packB[:], transB, b, ldb, k0, kb, j0, jb)
			t = prof.Next(phSgemmPack, t)
			first := k0 == 0
			for i0 := mLo; i0 < mHi; i0 += mc {
				ib := min(mc, mHi-i0)
				PackAPanels(packA[:], transA, a, lda, i0, ib, k0, kb, alpha)
				t = prof.Next(phSgemmPack, t)
				KernelBlock(packA[:], packB[:], ib, jb, kb, first, beta, c, i0*ldc+j0, ldc)
				t = prof.Next(KindSgemmKernel, t)
			}
		}
	}
}

// sgemmPackedRows is sgemmRows over a pre-packed A (PackA layout): the
// A-pack is skipped entirely and panels are read at their global
// offsets. mLo must be a multiple of mr.
func sgemmPackedRows(pa []float32, mLo, mHi, m, n, k int, transB bool, b []float32, ldb int, beta float32, c []float32, ldc int) {
	pm := ((m + mr - 1) / mr) * mr
	t := prof.Enter()
	var packB [kc * nc]float32
	for j0 := 0; j0 < n; j0 += nc {
		jb := min(nc, n-j0)
		for k0 := 0; k0 < k; k0 += kc {
			kb := min(kc, k-k0)
			PackBPanels(packB[:], transB, b, ldb, k0, kb, j0, jb)
			t = prof.Next(phSgemmPack, t)
			first := k0 == 0
			for i0 := mLo; i0 < mHi; i0 += mc {
				ib := min(mc, mHi-i0)
				KernelBlock(pa[pm*k0+(i0/mr)*(kb*mr):], packB[:], ib, jb, kb, first, beta, c, i0*ldc+j0, ldc)
				t = prof.Next(KindSgemmKernel, t)
			}
		}
	}
}

// PackBPanels packs op(B)[k0:k0+kb, j0:j0+jb] into column panels of nr:
// panel jp holds columns [jp*nr, jp*nr+nr) stored [kb][nr], zero-padded
// past jb so the micro-kernel never branches on column width.
func PackBPanels(pack []float32, transB bool, b []float32, ldb int, k0, kb, j0, jb int) {
	for jt := 0; jt < jb; jt += nr {
		dst := pack[(jt/nr)*(kb*nr):]
		jw := min(nr, jb-jt)
		if !transB && jw == nr {
			for p := 0; p < kb; p++ {
				CopyPanelRow((*[nr]float32)(dst[p*nr:]), (*[nr]float32)(b[(k0+p)*ldb+j0+jt:]))
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
			packBTPanel(dst[:kb*nr], b, ldb, k0, kb, j0+jt, jw)
		}
	}
}

// packBTPanel is PackBPanels' transposed case for one panel: panel
// column j is row j0+j of B, which is contiguous in k, so each row is
// read as one run rather than one strided load per element. With AVX a
// full panel moves as 8x8 blocks transposed in registers; the k tail, a
// partial panel and other hosts take the scalar loop.
func packBTPanel(dst, b []float32, ldb, k0, kb, j0, jw int) {
	p0 := 0
	if useAVX && jw == nr && kb >= 8 {
		p0 = kb &^ 7
		for h := 0; h < nr; h += 8 {
			row := (j0 + h) * ldb
			src := b[row+k0 : row+7*ldb+k0+p0]
			packBT8AVX(&dst[h], &src[0], ldb, p0/8)
		}
	}
	for j := 0; j < jw; j++ {
		src := b[(j0+j)*ldb+k0 : (j0+j)*ldb+k0+kb]
		for p := p0; p < kb; p++ {
			dst[p*nr+j] = src[p]
		}
	}
	for j := jw; j < nr; j++ {
		for p := 0; p < kb; p++ {
			dst[p*nr+j] = 0
		}
	}
}

// CopyPanelRow copies one nr-wide row into a packed B panel as four
// 16-byte moves: an array assignment would call memmove, and an element
// loop moves one float at a time.
func CopyPanelRow(d, src *[nr]float32) {
	*(*[4]float32)(d[0:4]) = *(*[4]float32)(src[0:4])
	*(*[4]float32)(d[4:8]) = *(*[4]float32)(src[4:8])
	*(*[4]float32)(d[8:12]) = *(*[4]float32)(src[8:12])
	*(*[4]float32)(d[12:16]) = *(*[4]float32)(src[12:16])
}

// PackAPanels packs alpha * op(A)[i0:i0+ib, k0:k0+kb] into row panels of
// mr: panel ip holds rows [ip*mr, ip*mr+mr) stored [kb][mr], zero-padded
// past ib. The padded lanes make the micro-kernel's body width-
// independent; alpha is folded in here (one rounded product per
// element) so the kernel never multiplies by it.
// With AVX a full no-trans panel is packed eight k at a time (four row
// loads scaled by alpha, transposed in registers); the k tail and
// partial panels take the scalar loop, which computes the same products.
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
// adjacent B panels run as one 4x32 tile that also stores C; the last
// odd panel and a partial row tile take the 4x16 walk (AVX+FMA kernel,
// or the generic quarters without FMA). All bodies are bitwise-identical.
// Each C element's accumulation is a single strict k-order fused chain,
// so results do not depend on how rows or columns are chunked across
// workers.
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
				sgemmTile32AVX512(&ap[0], &bp[0], kb, &ct[0], ldc, mode, beta)
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

// kernelPanel is KernelBlock's 4x16 walk down one B panel (jw live
// columns at C offset off) over rows [itLo, ib).
func kernelPanel(pa, bp []float32, itLo, ib, kb, jw int, first bool, beta float32, c []float32, off, ldc int) {
	var acc [mr * nr]float32
	for it := itLo; it < ib; it += mr {
		ap := pa[(it/mr)*(kb*mr):]
		if useFMA {
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
func fuseBeta(cv, v float32, first bool, beta float32) float32 {
	if !first || beta == 1 {
		return cv + v
	}
	if beta == 0 {
		return v
	}
	return float32(beta*cv) + v
}

// sgemmTileGeneric is the pure-Go form of sgemmTileAVX: one mr x nr
// tile accumulated from zero, computed as 2x4 quarters so the
// accumulators stay in the gc register allocator's 15 usable XMM
// registers. Every C element sees the same strict k-order fused chain as
// the AVX kernel (fma32 is VFMADD231SS's rounding), so the two paths are
// bitwise-identical.
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
				c00 = fma32(a0, b0, c00)
				c10 = fma32(a1, b0, c10)
				c01 = fma32(a0, b1, c01)
				c11 = fma32(a1, b1, c11)
				b2, b3 := bv[2], bv[3]
				c02 = fma32(a0, b2, c02)
				c12 = fma32(a1, b2, c12)
				c03 = fma32(a0, b3, c03)
				c13 = fma32(a1, b3, c13)
				qa += mr
				qb += nr
			}
			acc[ro*nr+co], acc[ro*nr+co+1], acc[ro*nr+co+2], acc[ro*nr+co+3] = c00, c01, c02, c03
			acc[(ro+1)*nr+co], acc[(ro+1)*nr+co+1], acc[(ro+1)*nr+co+2], acc[(ro+1)*nr+co+3] = c10, c11, c12, c13
		}
	}
}

// Saxpy computes y += alpha * x: per element one rounded product, then
// one rounded sum (never fused). With AVX the body runs eight elements
// at a time with the same two roundings.
func Saxpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("blas: Saxpy length mismatch")
	}
	i := 0
	if useAVX && len(x) >= 8 {
		i = len(x) &^ 7
		saxpyAVX(alpha, &x[0], &y[0], i/8)
	}
	for ; i < len(x); i++ {
		y[i] += float32(alpha * x[i])
	}
}
