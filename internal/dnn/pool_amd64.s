// AVX merge body of max pooling (see Pool.maxPlane). Lane i compares
// s[i*stride] > d[i] (VCMPPS, predicate GT_OQ: false on a NaN, false on
// ±0 ties) and where it holds takes the source value and its index
// (VBLENDVPS), so it keeps the first maximum exactly as poolMergeGeneric
// does. Every instruction is VEX-encoded: one legacy SSE instruction
// after VEX writes to the upper halves costs a state transition per call.

#include "textflag.h"

// func poolMergeAVX(d *float32, di *int32, dRow int, s *float32, si *int32, sRow, rows, n, stride int)
//
// Merges rows rows of n >= 8 lanes, stride 1 or 2, eight lanes at a time;
// row r of d starts r*dRow elements in, row r of s r*sRow. A group that
// would run past n is moved back to end at n instead: merging a lane with
// the same source twice changes nothing, so the overlap is exact. Stride
// 2 reads each source row over [0, 2n) and deinterleaves the even
// elements with 128-bit inserts and one VSHUFPS (AVX alone, no AVX2
// permute).
TEXT ·poolMergeAVX(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), DI
	MOVQ di+8(FP), R8
	MOVQ dRow+16(FP), R10
	MOVQ s+24(FP), SI
	MOVQ si+32(FP), R9
	MOVQ sRow+40(FP), R11
	MOVQ rows+48(FP), R12
	MOVQ n+56(FP), BX
	MOVQ stride+64(FP), DX
	SHLQ $2, R10
	SHLQ $2, R11
	SUBQ $8, BX          // the last group's first lane
	CMPQ DX, $2
	JEQ  row2

row1:
	XORQ AX, AX

stride1:
	VMOVUPS   (SI)(AX*4), Y0
	VMOVUPS   (DI)(AX*4), Y1
	VCMPPS    $0x1e, Y1, Y0, Y2
	VBLENDVPS Y2, Y0, Y1, Y1
	VMOVUPS   Y1, (DI)(AX*4)
	VMOVUPS   (R8)(AX*4), Y3
	VBLENDVPS Y2, (R9)(AX*4), Y3, Y3
	VMOVUPS   Y3, (R8)(AX*4)
	CMPQ      AX, BX
	JEQ       next1
	ADDQ      $8, AX
	CMPQ      AX, BX
	JLE       stride1
	MOVQ      BX, AX
	JMP       stride1

next1:
	ADDQ R10, DI
	ADDQ R10, R8
	ADDQ R11, SI
	ADDQ R11, R9
	DECQ R12
	JNZ  row1
	VZEROUPPER
	RET

row2:
	XORQ AX, AX

stride2:
	VMOVUPS     (SI)(AX*8), X0
	VINSERTF128 $1, 32(SI)(AX*8), Y0, Y0 // s0-3 | s8-11
	VMOVUPS     16(SI)(AX*8), X4
	VINSERTF128 $1, 48(SI)(AX*8), Y4, Y4 // s4-7 | s12-15
	VSHUFPS     $0x88, Y4, Y0, Y0        // s0 s2 s4 s6 | s8 s10 s12 s14
	VMOVUPS     (R9)(AX*8), X5
	VINSERTF128 $1, 32(R9)(AX*8), Y5, Y5
	VMOVUPS     16(R9)(AX*8), X6
	VINSERTF128 $1, 48(R9)(AX*8), Y6, Y6
	VSHUFPS     $0x88, Y6, Y5, Y5
	VMOVUPS     (DI)(AX*4), Y1
	VCMPPS      $0x1e, Y1, Y0, Y2
	VBLENDVPS   Y2, Y0, Y1, Y1
	VMOVUPS     Y1, (DI)(AX*4)
	VMOVUPS     (R8)(AX*4), Y3
	VBLENDVPS   Y2, Y5, Y3, Y3
	VMOVUPS     Y3, (R8)(AX*4)
	CMPQ        AX, BX
	JEQ         next2
	ADDQ        $8, AX
	CMPQ        AX, BX
	JLE         stride2
	MOVQ        BX, AX
	JMP         stride2

next2:
	ADDQ R10, DI
	ADDQ R10, R8
	ADDQ R11, SI
	ADDQ R11, R9
	DECQ R12
	JNZ  row2
	VZEROUPPER
	RET
