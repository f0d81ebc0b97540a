#include "textflag.h"

// AVX2 kernel of forwardSolve4 (see forward_amd64.go). Lane j of every YMM
// register is right-hand side j. Rows go four at a time: the sums of rows
// i … i+3 run over k < i together, one v[k] load serving four independent
// VSUBPD chains; the triangle of the block then finishes them in k order.
// Rows left over at the end go one at a time.

// func fwdSolve4(l *float64, b, v *[4]float64, n int)
TEXT ·fwdSolve4(SB), NOSPLIT, $0-32
	MOVQ l+0(FP), SI       // row i of L
	MOVQ b+8(FP), DX
	MOVQ v+16(FP), DI
	MOVQ n+24(FP), CX
	XORQ R8, R8            // i

block:
	LEAQ 4(R8), AX
	CMPQ AX, CX
	JGT  single
	LEAQ 8(SI)(R8*8), R12  // row i+1
	LEAQ 16(R12)(R8*8), R13 // row i+2
	LEAQ 24(R13)(R8*8), BX // row i+3
	MOVQ R8, R9
	SHLQ $5, R9            // byte offset of b[i], v[i]
	VMOVUPD (DX)(R9*1), Y0
	VMOVUPD 32(DX)(R9*1), Y1
	VMOVUPD 64(DX)(R9*1), Y2
	VMOVUPD 96(DX)(R9*1), Y3
	XORQ R10, R10          // k
	MOVQ DI, R11           // &v[k]

blockk:
	CMPQ R10, R8
	JGE  blocktri
	VMOVUPD      (R11), Y4
	VBROADCASTSD (SI)(R10*8), Y5
	VMULPD       Y4, Y5, Y5
	VSUBPD       Y5, Y0, Y0
	VBROADCASTSD (R12)(R10*8), Y6
	VMULPD       Y4, Y6, Y6
	VSUBPD       Y6, Y1, Y1
	VBROADCASTSD (R13)(R10*8), Y7
	VMULPD       Y4, Y7, Y7
	VSUBPD       Y7, Y2, Y2
	VBROADCASTSD (BX)(R10*8), Y8
	VMULPD       Y4, Y8, Y8
	VSUBPD       Y8, Y3, Y3
	INCQ R10
	ADDQ $32, R11
	JMP  blockk

blocktri:
	// R11 = &v[i]. Row i+r subtracts the terms k = i … i+r−1 in order.
	VBROADCASTSD (SI)(R8*8), Y5
	VDIVPD       Y5, Y0, Y0
	VMOVUPD      Y0, (R11)

	VBROADCASTSD (R12)(R8*8), Y5
	VMULPD       Y0, Y5, Y5
	VSUBPD       Y5, Y1, Y1
	VBROADCASTSD 8(R12)(R8*8), Y5
	VDIVPD       Y5, Y1, Y1
	VMOVUPD      Y1, 32(R11)

	VBROADCASTSD (R13)(R8*8), Y5
	VMULPD       Y0, Y5, Y5
	VSUBPD       Y5, Y2, Y2
	VBROADCASTSD 8(R13)(R8*8), Y5
	VMULPD       Y1, Y5, Y5
	VSUBPD       Y5, Y2, Y2
	VBROADCASTSD 16(R13)(R8*8), Y5
	VDIVPD       Y5, Y2, Y2
	VMOVUPD      Y2, 64(R11)

	VBROADCASTSD (BX)(R8*8), Y5
	VMULPD       Y0, Y5, Y5
	VSUBPD       Y5, Y3, Y3
	VBROADCASTSD 8(BX)(R8*8), Y5
	VMULPD       Y1, Y5, Y5
	VSUBPD       Y5, Y3, Y3
	VBROADCASTSD 16(BX)(R8*8), Y5
	VMULPD       Y2, Y5, Y5
	VSUBPD       Y5, Y3, Y3
	VBROADCASTSD 24(BX)(R8*8), Y5
	VDIVPD       Y5, Y3, Y3
	VMOVUPD      Y3, 96(R11)

	LEAQ 32(BX)(R8*8), SI  // row i+4
	ADDQ $4, R8
	JMP  block

single:
	CMPQ R8, CX
	JGE  done
	MOVQ R8, R9
	SHLQ $5, R9
	VMOVUPD (DX)(R9*1), Y0
	XORQ R10, R10
	MOVQ DI, R11

singlek:
	CMPQ R10, R8
	JGE  singlediag
	VBROADCASTSD (SI)(R10*8), Y5
	VMULPD       (R11), Y5, Y5
	VSUBPD       Y5, Y0, Y0
	INCQ R10
	ADDQ $32, R11
	JMP  singlek

singlediag:
	VBROADCASTSD (SI)(R8*8), Y5
	VDIVPD       Y5, Y0, Y0
	VMOVUPD      Y0, (R11)
	LEAQ 8(SI)(R8*8), SI   // row i+1
	INCQ R8
	JMP  single

done:
	VZEROUPPER
	RET
