// AVX2 micro-kernel for the blocked signed integer MVM (see blocked.go and
// madd_amd64.go). The kernel is gated at runtime by cpufeat.AVX2; nothing
// here executes on CPUs without AVX2.

#include "textflag.h"

// func maddBlock(w *int8, u *uint16, acc *int32, rowPairs int)
//
// Per row pair p: broadcast the dword (u[2p] | u[2p+1]<<16) to all eight
// dword lanes, sign-extend the pair's 32 interleaved int8 weights to two
// 16×int16 vectors, VPMADDWD each against the broadcast codes — int32 lane
// j accumulates q[2p][j]·u[2p] + q[2p+1][j]·u[2p+1] — and add into the two
// YMM column accumulators (cols 0–7 in Y0, 8–15 in Y1), which are loaded
// from and stored back to acc. Overflow is impossible by the
// maxBlockedRows bound.
TEXT ·maddBlock(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ acc+16(FP), DX
	MOVQ rowPairs+24(FP), CX
	VMOVDQU (DX), Y0
	VMOVDQU 32(DX), Y1

pairloop:
	VPBROADCASTD (SI), Y2
	VPMOVSXBW (DI), Y3
	VPMADDWD Y2, Y3, Y3
	VPADDD Y3, Y0, Y0
	VPMOVSXBW 16(DI), Y4
	VPMADDWD Y2, Y4, Y4
	VPADDD Y4, Y1, Y1
	ADDQ $32, DI
	ADDQ $4, SI
	DECQ CX
	JNZ pairloop

	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	VZEROUPPER
	RET

// func maddBlock4(w *int8, u *uint16, uStride int, acc *int32, rowPairs int)
//
// maddBlock for four batch members at once: member m's codes start at
// u + m·uStride (uStride in uint16 elements) and its 16 column
// accumulators at acc[16m:16m+16]. Each row pair's 32 weight bytes are
// loaded and sign-extended once (Y8, Y9) and multiply-added against the
// four members' broadcast code pairs (Y10–Y13) into eight YMM accumulators
// (member m: cols 0–7 in Y(2m), 8–15 in Y(2m+1)), so the widening and the
// weight loads are shared four ways. Per lane the additions happen in the
// same row-pair order as maddBlock, over exact int32 integers.
TEXT ·maddBlock4(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ uStride+16(FP), BX
	MOVQ acc+24(FP), DX
	MOVQ rowPairs+32(FP), CX
	SHLQ $1, BX                 // stride in bytes
	LEAQ (BX)(BX*2), R8         // 3·stride
	VMOVDQU (DX), Y0
	VMOVDQU 32(DX), Y1
	VMOVDQU 64(DX), Y2
	VMOVDQU 96(DX), Y3
	VMOVDQU 128(DX), Y4
	VMOVDQU 160(DX), Y5
	VMOVDQU 192(DX), Y6
	VMOVDQU 224(DX), Y7

pairloop4:
	VPMOVSXBW (DI), Y8
	VPMOVSXBW 16(DI), Y9
	VPBROADCASTD (SI), Y10
	VPBROADCASTD (SI)(BX*1), Y11
	VPBROADCASTD (SI)(BX*2), Y12
	VPBROADCASTD (SI)(R8*1), Y13
	VPMADDWD Y10, Y8, Y14
	VPMADDWD Y10, Y9, Y15
	VPADDD Y14, Y0, Y0
	VPADDD Y15, Y1, Y1
	VPMADDWD Y11, Y8, Y14
	VPMADDWD Y11, Y9, Y15
	VPADDD Y14, Y2, Y2
	VPADDD Y15, Y3, Y3
	VPMADDWD Y12, Y8, Y14
	VPMADDWD Y12, Y9, Y15
	VPADDD Y14, Y4, Y4
	VPADDD Y15, Y5, Y5
	VPMADDWD Y13, Y8, Y14
	VPMADDWD Y13, Y9, Y15
	VPADDD Y14, Y6, Y6
	VPADDD Y15, Y7, Y7
	ADDQ $32, DI
	ADDQ $4, SI
	DECQ CX
	JNZ pairloop4

	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	VMOVDQU Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VMOVDQU Y4, 128(DX)
	VMOVDQU Y5, 160(DX)
	VMOVDQU Y6, 192(DX)
	VMOVDQU Y7, 224(DX)
	VZEROUPPER
	RET

// func maddRowQuad(a, b, c, d, pa, pb, pc, pd *int8, codeAB, codeCD uint32, acc *int32, blocks int)
//
// Row-gather step of the single-member kernel (see BlockedMatrix.mulOne):
// adds q_a[j]·u_a + q_b[j]·u_b + q_c[j]·u_c + q_d[j]·u_d into acc for the
// first 16·blocks columns of four row-major weight rows, where
// codeAB = u_a | u_b<<16 and codeCD = u_c | u_d<<16. Per 16-column block
// each row pair's 16+16 int8 weights are sign-extended (VPMOVSXBW),
// interleaved word by word (VPUNPCKLWD/VPUNPCKHWD, which work within each
// 128-bit lane) and multiply-added against the pair's broadcast codes; the
// two pairs' sums are added and folded into the block's accumulators,
// which are loaded and stored once per four rows. The in-lane interleave
// leaves the block's 16 int32 sums in the fixed order acc[0:16] =
// cols 0–3, 8–11, 4–7, 12–15; the caller undoes it once at the end.
// Every fourth block (once per 64 bytes of row) it also prefetches the
// same offset of the rows pa–pd the caller streams next. Overflow is
// impossible by the maxBlockedRows bound.
TEXT ·maddRowQuad(SB), NOSPLIT, $0-88
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ c+16(FP), R8
	MOVQ d+24(FP), R9
	MOVQ pa+32(FP), R10
	MOVQ pb+40(FP), R11
	MOVQ pc+48(FP), R12
	MOVQ pd+56(FP), R13
	MOVL codeAB+64(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y0
	MOVL codeCD+68(FP), AX
	VMOVD AX, X1
	VPBROADCASTD X1, Y1
	MOVQ acc+72(FP), DX
	MOVQ blocks+80(FP), CX

quadloop:
	TESTQ $3, CX
	JNZ noprefetch
	PREFETCHT0 (R10)
	PREFETCHT0 (R11)
	PREFETCHT0 (R12)
	PREFETCHT0 (R13)

noprefetch:
	VPMOVSXBW (SI), Y3
	VPMOVSXBW (DI), Y4
	VPMOVSXBW (R8), Y7
	VPMOVSXBW (R9), Y8
	VPUNPCKLWD Y4, Y3, Y5
	VPUNPCKHWD Y4, Y3, Y6
	VPUNPCKLWD Y8, Y7, Y9
	VPUNPCKHWD Y8, Y7, Y10
	VPMADDWD Y0, Y5, Y5
	VPMADDWD Y0, Y6, Y6
	VPMADDWD Y1, Y9, Y9
	VPMADDWD Y1, Y10, Y10
	VPADDD Y9, Y5, Y5
	VPADDD Y10, Y6, Y6
	VPADDD (DX), Y5, Y5
	VPADDD 32(DX), Y6, Y6
	VMOVDQU Y5, (DX)
	VMOVDQU Y6, 32(DX)
	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $64, DX
	DECQ CX
	JNZ quadloop

	VZEROUPPER
	RET
