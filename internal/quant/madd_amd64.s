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
