package blas

import "ucudnn/internal/prof"

// skinnyStrip is the column width one no-trans skinny pass accumulates:
// the mr x skinnyStrip accumulator (16 KiB) stays L1-resident while B
// rows stream past it, and each B row is read in 4 KiB runs.
//
// skinnyKBlocks is how many kc blocks of A the transB skinny walk packs
// ahead (24 KiB): each B row is then read in runs of that many blocks,
// long enough for the hardware prefetcher to follow, instead of one
// 768-byte block per visit.
//
// dotRows is how many B rows one transB dot pass takes: eight chains of
// four lanes, one per row.
const (
	skinnyStrip   = 1024
	skinnyKBlocks = 8
	dotRows       = 8
)

// sgemmSkinny computes columns [nLo, nHi) of C = alpha*op(A)*op(B) +
// beta*C for a product whose A is a single row panel (m <= mr): every
// fully-connected forward and input gradient at batch <= 4, every
// batch-1 product. A packed B element would be read by exactly one tile,
// so packing B only doubles the traffic of the operand that is all of
// the cost; B is streamed from where it lies instead, against the
// alpha-fused [kb][mr] A blocks PackAPanels builds.
//
// Per element it is the contract of KernelBlock: within each kc block
// the sum starts from zero and takes the products in k order as one
// fused chain; the first block stores beta-fused, later blocks add. The
// bits are those of the packed path at every worker count.
//
// The whole walk is reported as PhSgemmKernel: the A pack is a few KiB
// per block against the B stream.
func sgemmSkinny(transA, transB bool, m, nLo, nHi, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	t := prof.Enter()
	if transB {
		sgemmSkinnyNT(transA, m, nLo, nHi, k, alpha, a, lda, b, ldb, beta, c, ldc)
	} else {
		sgemmSkinnyNN(transA, m, nLo, nHi, k, alpha, a, lda, b, ldb, beta, c, ldc)
	}
	prof.Exit(KindSgemmKernel, t)
}

// sgemmSkinnyNT: op(B) column j is row j of B, contiguous in k. dotRows
// rows at a time, one 4-lane dot chain (a row of A per lane) per B row.
func sgemmSkinnyNT(transA bool, m, nLo, nHi, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	var pa [skinnyKBlocks * kc * mr]float32
	var acc [dotRows * mr]float32
	for kg := 0; kg < k; kg += skinnyKBlocks * kc {
		kgEnd := min(k, kg+skinnyKBlocks*kc)
		for k0 := kg; k0 < kgEnd; k0 += kc {
			PackAPanels(pa[(k0-kg)*mr:], transA, a, lda, 0, m, k0, min(kc, k-k0), alpha)
		}
		for j := nLo; j < nHi; j += dotRows {
			jw := min(dotRows, nHi-j)
			for k0 := kg; k0 < kgEnd; k0 += kc {
				kb := min(kc, k-k0)
				if useFMA && jw == dotRows {
					sgemmDotAVX(&pa[(k0-kg)*mr], &b[j*ldb+k0], ldb, kb, &acc)
				} else {
					sgemmDotGeneric(pa[(k0-kg)*mr:], b[j*ldb+k0:], ldb, jw, kb, &acc)
				}
				for i := 0; i < m; i++ {
					row := c[i*ldc+j : i*ldc+j+jw]
					for r := range row {
						row[r] = fuseBeta(row[r], acc[r*mr+i], k0 == 0, beta)
					}
				}
			}
		}
	}
}

// sgemmSkinnyNN: B rows are contiguous in j. Each B row is one AXPY per
// row of A into the strip accumulator.
func sgemmSkinnyNN(transA bool, m, nLo, nHi, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	var pa [kc * mr]float32
	var acc [mr * skinnyStrip]float32
	for j0 := nLo; j0 < nHi; j0 += skinnyStrip {
		jb := min(skinnyStrip, nHi-j0)
		for k0 := 0; k0 < k; k0 += kc {
			kb := min(kc, k-k0)
			PackAPanels(pa[:], transA, a, lda, 0, m, k0, kb, alpha)
			for i := 0; i < m; i++ {
				clear(acc[i*skinnyStrip : i*skinnyStrip+jb])
			}
			j8 := 0
			if useFMA && jb >= 8 {
				j8 = jb &^ 7
				sgemmAxpyAVX(&pa[0], &b[k0*ldb+j0], ldb, kb, j8/8, &acc)
			}
			if j8 < jb {
				sgemmAxpyGeneric(pa[:], b[k0*ldb+j0:], ldb, kb, j8, jb, &acc)
			}
			for i := 0; i < m; i++ {
				row := c[i*ldc+j0 : i*ldc+j0+jb]
				av := acc[i*skinnyStrip : i*skinnyStrip+jb]
				for j := range row {
					row[j] = fuseBeta(row[j], av[j], k0 == 0, beta)
				}
			}
		}
	}
}

// sgemmDotGeneric is the pure-Go form of sgemmDotAVX for jw <= dotRows
// rows of B (row stride ldb): acc[r*mr+i] = sum_p pa[p*mr+i] * b[r*ldb+p],
// each sum a fused chain from zero in p order — bitwise the AVX kernel.
func sgemmDotGeneric(pa, b []float32, ldb, jw, kb int, acc *[dotRows * mr]float32) {
	for r := 0; r < jw; r++ {
		row := b[r*ldb : r*ldb+kb]
		var c0, c1, c2, c3 float32
		for p, bv := range row {
			av := (*[mr]float32)(pa[p*mr:])
			c0 = fma32(av[0], bv, c0)
			c1 = fma32(av[1], bv, c1)
			c2 = fma32(av[2], bv, c2)
			c3 = fma32(av[3], bv, c3)
		}
		acc[r*mr], acc[r*mr+1], acc[r*mr+2], acc[r*mr+3] = c0, c1, c2, c3
	}
}

// sgemmAxpyGeneric is the pure-Go form of sgemmAxpyAVX over columns
// [jLo, jHi) of the strip: acc[i*skinnyStrip+j] = fma(pa[p*mr+i],
// b[p*ldb+j], acc[i*skinnyStrip+j]) for p in order — bitwise the AVX
// kernel.
func sgemmAxpyGeneric(pa, b []float32, ldb, kb, jLo, jHi int, acc *[mr * skinnyStrip]float32) {
	r0 := acc[jLo:jHi]
	r1 := acc[skinnyStrip+jLo : skinnyStrip+jHi]
	r2 := acc[2*skinnyStrip+jLo : 2*skinnyStrip+jHi]
	r3 := acc[3*skinnyStrip+jLo : 3*skinnyStrip+jHi]
	for p := 0; p < kb; p++ {
		av := (*[mr]float32)(pa[p*mr:])
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		row := b[p*ldb+jLo : p*ldb+jHi]
		for j, bv := range row {
			r0[j] = fma32(a0, bv, r0[j])
			r1[j] = fma32(a1, bv, r1[j])
			r2[j] = fma32(a2, bv, r2[j])
			r3[j] = fma32(a3, bv, r3[j])
		}
	}
}
