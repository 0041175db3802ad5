// AVX micro-kernel for the packed SGEMM tile walk. Lanes vectorize
// across the nr C columns while every C element keeps the exact
// mul-then-add k-order chain of the pure-Go tile (VMULPS + VADDPS, never
// FMA — fusing would skip the intermediate rounding and change bits), so
// the asm and generic paths produce bitwise-identical results.

#include "go_asm.h"
#include "textflag.h"

// func sgemmTileAVX(pa, pb *float32, kb int, acc *[32]float32)
//
// Computes acc[i][j] = sum_p pa[p*4+i] * pb[p*8+j] for one 4x8 tile:
// pa is one packed A row-panel ([kb][4], alpha fused), pb one packed B
// column-panel ([kb][8]). Rows live in Y0-Y3 across the whole k extent;
// the k loop is unrolled by two.
TEXT ·sgemmTileAVX(SB), NOSPLIT, $0-32
	MOVQ pa+0(FP), SI
	MOVQ pb+8(FP), DI
	MOVQ kb+16(FP), CX
	MOVQ acc+24(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	SUBQ $2, CX
	JL   tail

pair:
	VMOVUPS      (DI), Y12
	VMOVUPS      32(DI), Y13
	VBROADCASTSS (SI), Y14
	VBROADCASTSS 4(SI), Y15
	VMULPS       Y12, Y14, Y14
	VADDPS       Y14, Y0, Y0
	VMULPS       Y12, Y15, Y15
	VADDPS       Y15, Y1, Y1
	VBROADCASTSS 8(SI), Y14
	VBROADCASTSS 12(SI), Y15
	VMULPS       Y12, Y14, Y14
	VADDPS       Y14, Y2, Y2
	VMULPS       Y12, Y15, Y15
	VADDPS       Y15, Y3, Y3
	VBROADCASTSS 16(SI), Y14
	VBROADCASTSS 20(SI), Y15
	VMULPS       Y13, Y14, Y14
	VADDPS       Y14, Y0, Y0
	VMULPS       Y13, Y15, Y15
	VADDPS       Y15, Y1, Y1
	VBROADCASTSS 24(SI), Y14
	VBROADCASTSS 28(SI), Y15
	VMULPS       Y13, Y14, Y14
	VADDPS       Y14, Y2, Y2
	VMULPS       Y13, Y15, Y15
	VADDPS       Y15, Y3, Y3
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $2, CX
	JGE  pair

tail:
	ADDQ $2, CX
	JZ   done
	VMOVUPS      (DI), Y12
	VBROADCASTSS (SI), Y14
	VBROADCASTSS 4(SI), Y15
	VMULPS       Y12, Y14, Y14
	VADDPS       Y14, Y0, Y0
	VMULPS       Y12, Y15, Y15
	VADDPS       Y15, Y1, Y1
	VBROADCASTSS 8(SI), Y14
	VBROADCASTSS 12(SI), Y15
	VMULPS       Y12, Y14, Y14
	VADDPS       Y14, Y2, Y2
	VMULPS       Y12, Y15, Y15
	VADDPS       Y15, Y3, Y3

done:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VZEROUPPER
	RET

// STEP16 is one k step of sgemmTile16AVX512: brow is the 16-wide B row
// (the two panels' rows of this k side by side), aoff the byte offset of
// this k's four A values. Row i's product goes into Z0+i, acc first.
#define STEP16(brow, aoff) \
	VMULPS.BCST aoff(SI), brow, Z6     \
	VMULPS.BCST (aoff+4)(SI), brow, Z7 \
	VMULPS.BCST (aoff+8)(SI), brow, Z8 \
	VMULPS.BCST (aoff+12)(SI), brow, Z9 \
	VADDPS      Z6, Z0, Z0             \
	VADDPS      Z7, Z1, Z1             \
	VADDPS      Z8, Z2, Z2             \
	VADDPS      Z9, Z3, Z3

// func sgemmTile16AVX512(pa, pb *float32, kb int, c *float32, ldc, mode int, beta float32)
//
// Computes s[i][j] = sum_p pa[p*4+i] * B[p][j] for one 4x16 tile, where
// B[p][0:8] = pb[p*8:] and B[p][8:16] = pb[kb*8+p*8:] (two adjacent
// packed B panels), then stores row i into c[i*ldc:i*ldc+16] as s
// (tileStore), c + s (tileAdd) or beta*c + s (tileScale). Rows live in
// Z0-Z3 across the whole k extent; the k loop is unrolled by two. Each
// lane's chain is the one sgemmTileAVX computes for that column.
TEXT ·sgemmTile16AVX512(SB), NOSPLIT, $0-52
	MOVQ pa+0(FP), SI
	MOVQ pb+8(FP), DI
	MOVQ kb+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R9
	MOVQ mode+40(FP), R10
	MOVQ CX, R8
	SHLQ $5, R8 // second panel: kb*8 floats on
	SHLQ $2, R9
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	SUBQ $2, CX
	JL   tail16

pair16:
	VMOVUPS      (DI), Y4
	VINSERTF64X4 $1, (DI)(R8*1), Z4, Z4
	VMOVUPS      32(DI), Y5
	VINSERTF64X4 $1, 32(DI)(R8*1), Z5, Z5
	STEP16(Z4, 0)
	STEP16(Z5, 16)
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $2, CX
	JGE  pair16

tail16:
	ADDQ $2, CX
	JZ   store16
	VMOVUPS      (DI), Y4
	VINSERTF64X4 $1, (DI)(R8*1), Z4, Z4
	STEP16(Z4, 0)

store16:
	LEAQ (DX)(R9*2), R11 // row 2
	CMPQ R10, $const_tileAdd
	JEQ  add16
	JGT  scale16
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, (DX)(R9*1)
	VMOVUPS Z2, (R11)
	VMOVUPS Z3, (R11)(R9*1)
	VZEROUPPER
	RET

add16:
	VMOVUPS (DX), Z4
	VMOVUPS (DX)(R9*1), Z5
	VMOVUPS (R11), Z6
	VMOVUPS (R11)(R9*1), Z7
	VADDPS  Z0, Z4, Z4
	VADDPS  Z1, Z5, Z5
	VADDPS  Z2, Z6, Z6
	VADDPS  Z3, Z7, Z7
	VMOVUPS Z4, (DX)
	VMOVUPS Z5, (DX)(R9*1)
	VMOVUPS Z6, (R11)
	VMOVUPS Z7, (R11)(R9*1)
	VZEROUPPER
	RET

scale16:
	VBROADCASTSS beta+48(FP), Z8
	VMULPS       (DX), Z8, Z4
	VMULPS       (DX)(R9*1), Z8, Z5
	VMULPS       (R11), Z8, Z6
	VMULPS       (R11)(R9*1), Z8, Z7
	VADDPS       Z0, Z4, Z4
	VADDPS       Z1, Z5, Z5
	VADDPS       Z2, Z6, Z6
	VADDPS       Z3, Z7, Z7
	VMOVUPS      Z4, (DX)
	VMOVUPS      Z5, (DX)(R9*1)
	VMOVUPS      Z6, (R11)
	VMOVUPS      Z7, (R11)(R9*1)
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

// The two skinny kernels (m <= mr: B is streamed in place, see
// sgemm_skinny.go). Same arithmetic contract as the tile above: every C
// element is one k-order chain of VMULPS then VADDPS from zero.

// DOTSTEP is one k step of sgemmDotAVX at byte offset off into the eight
// B rows: X8 = the four alpha-fused A values of this k, broadcast B
// values in X9-X12 (two rounds of four rows).
#define DOTSTEP(off, aoff) \
	VMOVUPS      aoff(SI), X8          \
	VBROADCASTSS off(DI), X9           \
	VBROADCASTSS off(DI)(R8*1), X10    \
	VBROADCASTSS off(DI)(R8*2), X11    \
	VBROADCASTSS off(R9), X12          \
	VMULPS       X9, X8, X9            \
	VMULPS       X10, X8, X10          \
	VMULPS       X11, X8, X11          \
	VMULPS       X12, X8, X12          \
	VADDPS       X9, X0, X0            \
	VADDPS       X10, X1, X1           \
	VADDPS       X11, X2, X2           \
	VADDPS       X12, X3, X3           \
	VBROADCASTSS off(R9)(R8*1), X9     \
	VBROADCASTSS off(R9)(R8*2), X10    \
	VBROADCASTSS off(R10), X11         \
	VBROADCASTSS off(R10)(R8*1), X12   \
	VMULPS       X9, X8, X9            \
	VMULPS       X10, X8, X10          \
	VMULPS       X11, X8, X11          \
	VMULPS       X12, X8, X12          \
	VADDPS       X9, X4, X4            \
	VADDPS       X10, X5, X5           \
	VADDPS       X11, X6, X6           \
	VADDPS       X12, X7, X7

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
	VMULPS  Y4, a0, Y6       \
	VMULPS  Y5, a1, Y7       \
	VADDPS  accaddr, Y6, Y6  \
	VADDPS  Y7, Y6, Y6       \
	VMOVUPS Y6, accaddr

#define AXPYROW1(accaddr, a0) \
	VMULPS  Y4, a0, Y6       \
	VADDPS  accaddr, Y6, Y6  \
	VMOVUPS Y6, accaddr

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
