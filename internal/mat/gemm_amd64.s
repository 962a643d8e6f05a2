// AVX2 kernel for GemmAcc (gemm.go). It is gated at runtime by
// cpufeat.AVX2; nothing here executes on CPUs without AVX2.

#include "textflag.h"

// func gemmAVX2(m, n, k int, a *float64, aRow, aCol int, b, c *float64)
//
// For each row i of C the columns go in blocks of 32 (eight YMM
// accumulators), then one of 16, then blocks of 4, then single scalars.
// A block loads its C elements, and for p = 0..k-1 broadcasts A(i, p) and
// adds VMULPD(A(i, p), B[p][block]) into each accumulator with a separate
// VADDPD — no FMA, so every term is rounded exactly as the portable kernel
// rounds it — then stores the block back. Vectors span columns only; the
// summation over p stays sequential per element.
//
// Registers: DI = C row, SI = A row, BX = B, R8 = rows left, R11/R12 = A
// column/row stride in bytes, R13 = B and C row stride in bytes, CX =
// columns left in the row, DX = byte offset of the block, AX = A(i, p),
// R9 = B[p][block], R10 = p countdown.
TEXT ·gemmAVX2(SB), NOSPLIT, $0-64
	MOVQ m+0(FP), R8
	MOVQ a+24(FP), SI
	MOVQ aRow+32(FP), R12
	SHLQ $3, R12
	MOVQ aCol+40(FP), R11
	SHLQ $3, R11
	MOVQ b+48(FP), BX
	MOVQ c+56(FP), DI
	MOVQ n+8(FP), R13
	SHLQ $3, R13

row:
	MOVQ n+8(FP), CX
	XORQ DX, DX

block32:
	CMPQ CX, $32
	JLT  block16
	VMOVUPD 0(DI)(DX*1), Y0
	VMOVUPD 32(DI)(DX*1), Y1
	VMOVUPD 64(DI)(DX*1), Y2
	VMOVUPD 96(DI)(DX*1), Y3
	VMOVUPD 128(DI)(DX*1), Y4
	VMOVUPD 160(DI)(DX*1), Y5
	VMOVUPD 192(DI)(DX*1), Y6
	VMOVUPD 224(DI)(DX*1), Y7
	MOVQ SI, AX
	LEAQ (BX)(DX*1), R9
	MOVQ k+16(FP), R10

loop32:
	VBROADCASTSD (AX), Y8
	VMULPD 0(R9), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R9), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R9), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R9), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(R9), Y8, Y13
	VADDPD Y13, Y4, Y4
	VMULPD 160(R9), Y8, Y14
	VADDPD Y14, Y5, Y5
	VMULPD 192(R9), Y8, Y9
	VADDPD Y9, Y6, Y6
	VMULPD 224(R9), Y8, Y10
	VADDPD Y10, Y7, Y7
	ADDQ R11, AX
	ADDQ R13, R9
	DECQ R10
	JNZ  loop32
	VMOVUPD Y0, 0(DI)(DX*1)
	VMOVUPD Y1, 32(DI)(DX*1)
	VMOVUPD Y2, 64(DI)(DX*1)
	VMOVUPD Y3, 96(DI)(DX*1)
	VMOVUPD Y4, 128(DI)(DX*1)
	VMOVUPD Y5, 160(DI)(DX*1)
	VMOVUPD Y6, 192(DI)(DX*1)
	VMOVUPD Y7, 224(DI)(DX*1)
	ADDQ $256, DX
	SUBQ $32, CX
	JMP  block32

block16:
	CMPQ CX, $16
	JLT  block4
	VMOVUPD 0(DI)(DX*1), Y0
	VMOVUPD 32(DI)(DX*1), Y1
	VMOVUPD 64(DI)(DX*1), Y2
	VMOVUPD 96(DI)(DX*1), Y3
	MOVQ SI, AX
	LEAQ (BX)(DX*1), R9
	MOVQ k+16(FP), R10

loop16:
	VBROADCASTSD (AX), Y8
	VMULPD 0(R9), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R9), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R9), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R9), Y8, Y12
	VADDPD Y12, Y3, Y3
	ADDQ R11, AX
	ADDQ R13, R9
	DECQ R10
	JNZ  loop16
	VMOVUPD Y0, 0(DI)(DX*1)
	VMOVUPD Y1, 32(DI)(DX*1)
	VMOVUPD Y2, 64(DI)(DX*1)
	VMOVUPD Y3, 96(DI)(DX*1)
	ADDQ $128, DX
	SUBQ $16, CX

block4:
	CMPQ CX, $4
	JLT  block1
	VMOVUPD (DI)(DX*1), Y0
	MOVQ SI, AX
	LEAQ (BX)(DX*1), R9
	MOVQ k+16(FP), R10

loop4:
	VBROADCASTSD (AX), Y8
	VMULPD (R9), Y8, Y9
	VADDPD Y9, Y0, Y0
	ADDQ R11, AX
	ADDQ R13, R9
	DECQ R10
	JNZ  loop4
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  block4

block1:
	TESTQ CX, CX
	JZ    nextrow
	VMOVSD (DI)(DX*1), X0
	MOVQ SI, AX
	LEAQ (BX)(DX*1), R9
	MOVQ k+16(FP), R10

loop1:
	VMOVSD (AX), X8
	VMULSD (R9), X8, X9
	VADDSD X9, X0, X0
	ADDQ R11, AX
	ADDQ R13, R9
	DECQ R10
	JNZ  loop1
	VMOVSD X0, (DI)(DX*1)
	ADDQ $8, DX
	DECQ CX
	JMP  block1

nextrow:
	ADDQ R12, SI
	ADDQ R13, DI
	DECQ R8
	JNZ  row
	VZEROUPPER
	RET
