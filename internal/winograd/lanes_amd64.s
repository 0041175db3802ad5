// AVX kernel of the lane-batched Winograd transforms. Lanes are tiles:
// every output element is its own mul-then-add chain from zero in
// coefficient order (VMULPS + VADDPS, never FMA — fusing would skip the
// intermediate rounding and change bits), so the kernel, its pure-Go twin
// and the per-tile scalar product agree bit for bit.

#include "textflag.h"

// func laneMulAVX(dst *float32, dstStride int, coef *float32, ra, ca int, src *float32, srcStride, n8 int)
//
// dst[i*dstStride + x] = sum_a coef[i*ca+a] * src[a*srcStride + x] for
// i < ra and x < 8*n8. Four groups of eight lanes are in flight per pass
// (Y0-Y3, one broadcast per coefficient), then single groups.
TEXT ·laneMulAVX(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ coef+16(FP), SI
	MOVQ ra+24(FP), R9
	MOVQ ca+32(FP), R10
	MOVQ src+40(FP), DX
	MOVQ srcStride+48(FP), R11
	MOVQ n8+56(FP), R12
	SHLQ $2, R8
	SHLQ $2, R11

row:
	MOVQ DX, R13 // this row's source column
	MOVQ DI, R14 // and destination column
	MOVQ R12, CX
	SUBQ $4, CX
	JL   rest

quad:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   R13, AX
	MOVQ   SI, BX
	MOVQ   R10, R15

quadterm:
	VBROADCASTSS (BX), Y15
	VMULPS       (AX), Y15, Y12
	VMULPS       32(AX), Y15, Y13
	VMULPS       64(AX), Y15, Y14
	VMULPS       96(AX), Y15, Y11
	VADDPS       Y12, Y0, Y0
	VADDPS       Y13, Y1, Y1
	VADDPS       Y14, Y2, Y2
	VADDPS       Y11, Y3, Y3
	ADDQ         $4, BX
	ADDQ         R11, AX
	DECQ         R15
	JNZ          quadterm
	VMOVUPS      Y0, (R14)
	VMOVUPS      Y1, 32(R14)
	VMOVUPS      Y2, 64(R14)
	VMOVUPS      Y3, 96(R14)
	ADDQ         $128, R13
	ADDQ         $128, R14
	SUBQ         $4, CX
	JGE          quad

rest:
	ADDQ $4, CX
	JZ   next

single:
	VXORPS Y0, Y0, Y0
	MOVQ   R13, AX
	MOVQ   SI, BX
	MOVQ   R10, R15

singleterm:
	VBROADCASTSS (BX), Y15
	VMULPS       (AX), Y15, Y12
	VADDPS       Y12, Y0, Y0
	ADDQ         $4, BX
	ADDQ         R11, AX
	DECQ         R15
	JNZ          singleterm
	VMOVUPS      Y0, (R14)
	ADDQ         $32, R13
	ADDQ         $32, R14
	DECQ         CX
	JNZ          single

next:
	ADDQ R8, DI
	LEAQ (SI)(R10*4), SI
	DECQ R9
	JNZ  row
	VZEROUPPER
	RET
