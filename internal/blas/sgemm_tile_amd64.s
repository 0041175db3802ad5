// AVX micro-kernels for the packed SGEMM tile walk. Lanes vectorize
// across the C columns while every C element keeps the fused k-order
// chain of the pure-Go tile: s = fma(a_p, b_p, s) from +0, one
// VFMADD231PS per step, which rounds a*b+s once. fma32 is that rounding
// in Go, so the asm and generic paths produce bitwise-identical results.

#include "go_asm.h"
#include "textflag.h"

// STEP16 is one k step of sgemmTileAVX: the 16-wide B row at boff(DI)
// in Y8 (columns 0-7) and Y9 (8-15), the four A values at aoff(SI)
// broadcast in Y10-Y13. Row i's two halves chain in Y(2i) and Y(2i+1).
#define STEP16(aoff, boff) \
	VMOVUPS      boff(DI), Y8          \
	VMOVUPS      (boff+32)(DI), Y9     \
	VBROADCASTSS aoff(SI), Y10         \
	VBROADCASTSS (aoff+4)(SI), Y11     \
	VBROADCASTSS (aoff+8)(SI), Y12     \
	VBROADCASTSS (aoff+12)(SI), Y13    \
	VFMADD231PS  Y8, Y10, Y0           \
	VFMADD231PS  Y9, Y10, Y1           \
	VFMADD231PS  Y8, Y11, Y2           \
	VFMADD231PS  Y9, Y11, Y3           \
	VFMADD231PS  Y8, Y12, Y4           \
	VFMADD231PS  Y9, Y12, Y5           \
	VFMADD231PS  Y8, Y13, Y6           \
	VFMADD231PS  Y9, Y13, Y7

// func sgemmTileAVX(pa, pb *float32, kb int, acc *[64]float32)
//
// Computes acc[i][j] = sum_p pa[p*4+i] * pb[p*16+j] for one 4x16 tile:
// pa is one packed A row-panel ([kb][4], alpha fused), pb one packed B
// column-panel ([kb][16]). Eight YMM chains live across the whole k
// extent, enough to keep both FMA ports busy; the k loop is unrolled by
// two.
TEXT ·sgemmTileAVX(SB), NOSPLIT, $0-32
	MOVQ pa+0(FP), SI
	MOVQ pb+8(FP), DI
	MOVQ kb+16(FP), CX
	MOVQ acc+24(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	SUBQ $2, CX
	JL   tail

pair:
	STEP16(0, 0)
	STEP16(16, 64)
	ADDQ $32, SI
	ADDQ $128, DI
	SUBQ $2, CX
	JGE  pair

tail:
	ADDQ $2, CX
	JZ   done
	STEP16(0, 0)

done:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	VZEROUPPER
	RET

// STEP32 is one k step of sgemmTile32AVX512: the two panels' 16-wide B
// rows of this k (boff(DI) and boff(DI)(R8*1)) in b0 and b1, the four A
// values at aoff(SI) broadcast in a0-a3. Row i chains in Z(2i) (columns
// 0-15) and Z(2i+1) (16-31): eight independent FMA chains.
#define STEP32(aoff, boff, b0, b1, a0, a1, a2, a3) \
	VMOVUPS      boff(DI), b0          \
	VMOVUPS      boff(DI)(R8*1), b1    \
	VBROADCASTSS aoff(SI), a0          \
	VBROADCASTSS (aoff+4)(SI), a1      \
	VBROADCASTSS (aoff+8)(SI), a2      \
	VBROADCASTSS (aoff+12)(SI), a3     \
	VFMADD231PS  b0, a0, Z0            \
	VFMADD231PS  b1, a0, Z1            \
	VFMADD231PS  b0, a1, Z2            \
	VFMADD231PS  b1, a1, Z3            \
	VFMADD231PS  b0, a2, Z4            \
	VFMADD231PS  b1, a2, Z5            \
	VFMADD231PS  b0, a3, Z6            \
	VFMADD231PS  b1, a3, Z7

// func sgemmTile32AVX512(pa, pb *float32, kb int, c *float32, ldc, mode int, beta float32)
//
// Computes s[i][j] = sum_p pa[p*4+i] * B[p][j] for one 4x32 tile, where
// B[p][0:16] = pb[p*16:] and B[p][16:32] = pb[kb*16+p*16:] (two adjacent
// packed B panels, each row one contiguous ZMM load), then stores row i
// into c[i*ldc:i*ldc+32] as s (tileStore), c + s (tileAdd) or beta*c + s
// (tileScale). Rows live in Z0-Z7 across the whole k extent; the k loop
// is unrolled by two. Each lane's chain is the one sgemmTileAVX computes
// for that column.
TEXT ·sgemmTile32AVX512(SB), NOSPLIT, $0-52
	MOVQ pa+0(FP), SI
	MOVQ pb+8(FP), DI
	MOVQ kb+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R9
	MOVQ mode+40(FP), R10
	MOVQ CX, R8
	SHLQ $6, R8 // second panel: kb*16 floats on
	SHLQ $2, R9
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	SUBQ $2, CX
	JL   tail32

pair32:
	STEP32(0, 0, Z8, Z9, Z10, Z11, Z12, Z13)
	STEP32(16, 64, Z14, Z15, Z16, Z17, Z18, Z19)
	ADDQ $32, SI
	ADDQ $128, DI
	SUBQ $2, CX
	JGE  pair32

tail32:
	ADDQ $2, CX
	JZ   store32
	STEP32(0, 0, Z8, Z9, Z10, Z11, Z12, Z13)

store32:
	LEAQ (DX)(R9*2), R11 // row 2
	CMPQ R10, $const_tileAdd
	JEQ  add32
	JGT  scale32
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, (DX)(R9*1)
	VMOVUPS Z3, 64(DX)(R9*1)
	VMOVUPS Z4, (R11)
	VMOVUPS Z5, 64(R11)
	VMOVUPS Z6, (R11)(R9*1)
	VMOVUPS Z7, 64(R11)(R9*1)
	VZEROUPPER
	RET

add32:
	VADDPS  (DX), Z0, Z0
	VADDPS  64(DX), Z1, Z1
	VADDPS  (DX)(R9*1), Z2, Z2
	VADDPS  64(DX)(R9*1), Z3, Z3
	VADDPS  (R11), Z4, Z4
	VADDPS  64(R11), Z5, Z5
	VADDPS  (R11)(R9*1), Z6, Z6
	VADDPS  64(R11)(R9*1), Z7, Z7
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, (DX)(R9*1)
	VMOVUPS Z3, 64(DX)(R9*1)
	VMOVUPS Z4, (R11)
	VMOVUPS Z5, 64(R11)
	VMOVUPS Z6, (R11)(R9*1)
	VMOVUPS Z7, 64(R11)(R9*1)
	VZEROUPPER
	RET

// The beta store rounds beta*c first, then adds: fuseBeta's form, not a
// fused one.
scale32:
	VBROADCASTSS beta+48(FP), Z8
	VMULPS       (DX), Z8, Z9
	VMULPS       64(DX), Z8, Z10
	VMULPS       (DX)(R9*1), Z8, Z11
	VMULPS       64(DX)(R9*1), Z8, Z12
	VMULPS       (R11), Z8, Z13
	VMULPS       64(R11), Z8, Z14
	VMULPS       (R11)(R9*1), Z8, Z15
	VMULPS       64(R11)(R9*1), Z8, Z16
	VADDPS       Z0, Z9, Z9
	VADDPS       Z1, Z10, Z10
	VADDPS       Z2, Z11, Z11
	VADDPS       Z3, Z12, Z12
	VADDPS       Z4, Z13, Z13
	VADDPS       Z5, Z14, Z14
	VADDPS       Z6, Z15, Z15
	VADDPS       Z7, Z16, Z16
	VMOVUPS      Z9, (DX)
	VMOVUPS      Z10, 64(DX)
	VMOVUPS      Z11, (DX)(R9*1)
	VMOVUPS      Z12, 64(DX)(R9*1)
	VMOVUPS      Z13, (R11)
	VMOVUPS      Z14, 64(R11)
	VMOVUPS      Z15, (R11)(R9*1)
	VMOVUPS      Z16, 64(R11)(R9*1)
	VZEROUPPER
	RET

// func packA4x8AVX(dst, a *float32, lda, kb8 int, alpha float32)
//
// Packs kb8 groups of eight k of four A rows (a + r*lda, contiguous in
// k): each row is loaded eight k at a time and scaled by alpha — one
// rounded multiply per element, as the scalar loop — then the 4x8 block
// is transposed in registers into eight [mr] groups, 128 bytes of dst.
TEXT ·packA4x8AVX(SB), NOSPLIT, $0-36
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         lda+16(FP), R8
	MOVQ         kb8+24(FP), CX
	VBROADCASTSS alpha+32(FP), Y8
	SHLQ         $2, R8
	LEAQ         (SI)(R8*2), R9 // row 2

pack8:
	VMULPS     (SI), Y8, Y0
	VMULPS     (SI)(R8*1), Y8, Y1
	VMULPS     (R9), Y8, Y2
	VMULPS     (R9)(R8*1), Y8, Y3
	VUNPCKLPS  Y1, Y0, Y4 // r0k0 r1k0 r0k1 r1k1 | k4 k5
	VUNPCKHPS  Y1, Y0, Y5 // r0k2 r1k2 r0k3 r1k3 | k6 k7
	VUNPCKLPS  Y3, Y2, Y6
	VUNPCKHPS  Y3, Y2, Y7
	VSHUFPS    $0x44, Y6, Y4, Y0 // k0 | k4, rows 0-3
	VSHUFPS    $0xEE, Y6, Y4, Y1 // k1 | k5
	VSHUFPS    $0x44, Y7, Y5, Y2 // k2 | k6
	VSHUFPS    $0xEE, Y7, Y5, Y3 // k3 | k7
	VPERM2F128 $0x20, Y1, Y0, Y4 // k0 k1
	VPERM2F128 $0x20, Y3, Y2, Y5 // k2 k3
	VPERM2F128 $0x31, Y1, Y0, Y6 // k4 k5
	VPERM2F128 $0x31, Y3, Y2, Y7 // k6 k7
	VMOVUPS    Y4, (DI)
	VMOVUPS    Y5, 32(DI)
	VMOVUPS    Y6, 64(DI)
	VMOVUPS    Y7, 96(DI)
	ADDQ       $32, SI
	ADDQ       $32, R9
	ADDQ       $128, DI
	DECQ       CX
	JNZ        pack8
	VZEROUPPER
	RET

// func packBT8AVX(dst, b *float32, ldb, kb8 int)
//
// Packs kb8 groups of eight k of eight transposed-B rows (b + j*ldb,
// contiguous in k) into half of a B panel: each 8x8 block is loaded as
// eight row vectors, transposed in registers, and stored as eight
// 8-float halves of [nr] panel rows, 512 bytes of dst per group. A pure
// copy: every float moves unchanged.
TEXT ·packBT8AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R8
	MOVQ kb8+24(FP), CX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9  // 3 rows
	LEAQ (SI)(R8*4), R10 // row 4

packbt8:
	VMOVUPS    (SI), Y0
	VMOVUPS    (SI)(R8*1), Y1
	VMOVUPS    (SI)(R8*2), Y2
	VMOVUPS    (SI)(R9*1), Y3
	VMOVUPS    (R10), Y4
	VMOVUPS    (R10)(R8*1), Y5
	VMOVUPS    (R10)(R8*2), Y6
	VMOVUPS    (R10)(R9*1), Y7
	VUNPCKLPS  Y1, Y0, Y8  // r0k0 r1k0 r0k1 r1k1 | k4 k5
	VUNPCKHPS  Y1, Y0, Y9  // r0k2 r1k2 r0k3 r1k3 | k6 k7
	VUNPCKLPS  Y3, Y2, Y10
	VUNPCKHPS  Y3, Y2, Y11
	VUNPCKLPS  Y5, Y4, Y12
	VUNPCKHPS  Y5, Y4, Y13
	VUNPCKLPS  Y7, Y6, Y14
	VUNPCKHPS  Y7, Y6, Y15
	VSHUFPS    $0x44, Y10, Y8, Y0  // k0 | k4, rows 0-3
	VSHUFPS    $0xEE, Y10, Y8, Y1  // k1 | k5
	VSHUFPS    $0x44, Y11, Y9, Y2  // k2 | k6
	VSHUFPS    $0xEE, Y11, Y9, Y3  // k3 | k7
	VSHUFPS    $0x44, Y14, Y12, Y4 // k0 | k4, rows 4-7
	VSHUFPS    $0xEE, Y14, Y12, Y5
	VSHUFPS    $0x44, Y15, Y13, Y6
	VSHUFPS    $0xEE, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8   // k0, rows 0-7
	VPERM2F128 $0x20, Y5, Y1, Y9   // k1
	VPERM2F128 $0x20, Y6, Y2, Y10  // k2
	VPERM2F128 $0x20, Y7, Y3, Y11  // k3
	VPERM2F128 $0x31, Y4, Y0, Y12  // k4
	VPERM2F128 $0x31, Y5, Y1, Y13  // k5
	VPERM2F128 $0x31, Y6, Y2, Y14  // k6
	VPERM2F128 $0x31, Y7, Y3, Y15  // k7
	VMOVUPS    Y8, (DI)
	VMOVUPS    Y9, 64(DI)
	VMOVUPS    Y10, 128(DI)
	VMOVUPS    Y11, 192(DI)
	VMOVUPS    Y12, 256(DI)
	VMOVUPS    Y13, 320(DI)
	VMOVUPS    Y14, 384(DI)
	VMOVUPS    Y15, 448(DI)
	ADDQ       $32, SI
	ADDQ       $32, R10
	ADDQ       $512, DI
	DECQ       CX
	JNZ        packbt8
	VZEROUPPER
	RET

// func saxpyAVX(alpha float32, x, y *float32, n8 int)
//
// y += alpha*x over n8 groups of eight: one rounded product, then one
// rounded sum with y as the first operand, as Saxpy's scalar loop.
TEXT ·saxpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n8+24(FP), CX

saxpy8:
	VMULPS  (SI), Y0, Y1
	VMOVUPS (DI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     saxpy8
	VZEROUPPER
	RET

// The two skinny kernels (m <= mr: B is streamed in place, see
// sgemm_skinny.go). Same arithmetic contract as the tiles above: every C
// element is one k-order chain of VFMADD231PS from zero.

// DOTSTEP is one k step of sgemmDotAVX at byte offset off into the eight
// B rows: X8 = the four alpha-fused A values of this k, broadcast B
// values in X9-X12 (two rounds of four rows).
#define DOTSTEP(off, aoff) \
	VMOVUPS      aoff(SI), X8          \
	VBROADCASTSS off(DI), X9           \
	VBROADCASTSS off(DI)(R8*1), X10    \
	VBROADCASTSS off(DI)(R8*2), X11    \
	VBROADCASTSS off(R9), X12          \
	VFMADD231PS  X9, X8, X0            \
	VFMADD231PS  X10, X8, X1           \
	VFMADD231PS  X11, X8, X2           \
	VFMADD231PS  X12, X8, X3           \
	VBROADCASTSS off(R9)(R8*1), X9     \
	VBROADCASTSS off(R9)(R8*2), X10    \
	VBROADCASTSS off(R10), X11         \
	VBROADCASTSS off(R10)(R8*1), X12   \
	VFMADD231PS  X9, X8, X4            \
	VFMADD231PS  X10, X8, X5           \
	VFMADD231PS  X11, X8, X6           \
	VFMADD231PS  X12, X8, X7

// func sgemmDotAVX(pa, b *float32, ldb, kb int, acc *[32]float32)
//
// Computes acc[r*4+i] = sum_p pa[p*4+i] * b[r*ldb+p] for eight rows r of
// B (row stride ldb floats), each contiguous in p: pa is one packed A
// row-panel ([kb][4], alpha fused). Row r's four sums are the lanes of
// Xr; the k loop is unrolled by four.
TEXT ·sgemmDotAVX(SB), NOSPLIT, $0-40
	MOVQ pa+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ldb+16(FP), R8
	MOVQ kb+24(FP), CX
	MOVQ acc+32(FP), DX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R11
	LEAQ (DI)(R11*1), R9  // row 3
	LEAQ (R9)(R11*1), R10 // row 6
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7
	SUBQ $4, CX
	JL   dottail

dotquad:
	DOTSTEP(0, 0)
	DOTSTEP(4, 16)
	DOTSTEP(8, 32)
	DOTSTEP(12, 48)
	ADDQ $64, SI
	ADDQ $16, DI
	ADDQ $16, R9
	ADDQ $16, R10
	SUBQ $4, CX
	JGE  dotquad

dottail:
	ADDQ $4, CX
	JZ   dotdone

dotone:
	DOTSTEP(0, 0)
	ADDQ $16, SI
	ADDQ $4, DI
	ADDQ $4, R9
	ADDQ $4, R10
	DECQ CX
	JNZ  dotone

dotdone:
	VMOVUPS X0, (DX)
	VMOVUPS X1, 16(DX)
	VMOVUPS X2, 32(DX)
	VMOVUPS X3, 48(DX)
	VMOVUPS X4, 64(DX)
	VMOVUPS X5, 80(DX)
	VMOVUPS X6, 96(DX)
	VMOVUPS X7, 112(DX)
	RET

// AXPYROW adds this k pair's two products into eight columns of one
// accumulator row: Y4/Y5 hold the B rows of k and k+1, a0/a1 the row's
// broadcast A values for them. k before k+1 — the chain order.
#define AXPYROW(accaddr, a0, a1) \
	VMOVUPS     accaddr, Y6 \
	VFMADD231PS Y4, a0, Y6  \
	VFMADD231PS Y5, a1, Y6  \
	VMOVUPS     Y6, accaddr

#define AXPYROW1(accaddr, a0) \
	VMOVUPS     accaddr, Y6 \
	VFMADD231PS Y4, a0, Y6  \
	VMOVUPS     Y6, accaddr

// func sgemmAxpyAVX(pa, b *float32, ldb, kb, n8 int, acc *[4*skinnyStrip]float32)
//
// Computes acc[i*skinnyStrip+j] += pa[p*4+i] * b[p*ldb+j] for p = 0..kb-1 in
// order and j < 8*n8: B rows are contiguous in j. Two k steps per pass
// over the strip, their eight A values broadcast in Y8-Y15, so the
// accumulator is loaded and stored once per pair.
TEXT ·sgemmAxpyAVX(SB), NOSPLIT, $0-48
	MOVQ pa+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ldb+16(FP), R8
	MOVQ kb+24(FP), CX
	MOVQ n8+32(FP), R12
	MOVQ acc+40(FP), DX
	SHLQ $2, R8
	SUBQ $2, CX
	JL   axpytail

axpypair:
	VBROADCASTSS (SI), Y8
	VBROADCASTSS 4(SI), Y9
	VBROADCASTSS 8(SI), Y10
	VBROADCASTSS 12(SI), Y11
	VBROADCASTSS 16(SI), Y12
	VBROADCASTSS 20(SI), Y13
	VBROADCASTSS 24(SI), Y14
	VBROADCASTSS 28(SI), Y15
	MOVQ DI, R9
	LEAQ (DI)(R8*1), R10
	MOVQ DX, R11
	MOVQ R12, BX

axpypaircols:
	VMOVUPS (R9), Y4
	VMOVUPS (R10), Y5
	AXPYROW(0(R11), Y8, Y12)
	AXPYROW((const_skinnyStrip*4)(R11), Y9, Y13)
	AXPYROW((const_skinnyStrip*8)(R11), Y10, Y14)
	AXPYROW((const_skinnyStrip*12)(R11), Y11, Y15)
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ BX
	JNZ  axpypaircols
	ADDQ $32, SI
	LEAQ (DI)(R8*2), DI
	SUBQ $2, CX
	JGE  axpypair

axpytail:
	ADDQ $2, CX
	JZ   axpydone
	VBROADCASTSS (SI), Y8
	VBROADCASTSS 4(SI), Y9
	VBROADCASTSS 8(SI), Y10
	VBROADCASTSS 12(SI), Y11
	MOVQ DX, R11
	MOVQ R12, BX

axpyonecols:
	VMOVUPS (DI), Y4
	AXPYROW1(0(R11), Y8)
	AXPYROW1((const_skinnyStrip*4)(R11), Y9)
	AXPYROW1((const_skinnyStrip*8)(R11), Y10)
	AXPYROW1((const_skinnyStrip*12)(R11), Y11)
	ADDQ $32, DI
	ADDQ $32, R11
	DECQ BX
	JNZ  axpyonecols

axpydone:
	VZEROUPPER
	RET

// func cpuidLow(arg1, arg2 uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidLow(SB), NOSPLIT, $0-24
	MOVL arg1+0(FP), AX
	MOVL arg2+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
