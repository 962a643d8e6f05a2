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
