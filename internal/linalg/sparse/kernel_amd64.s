#include "textflag.h"

// AVX2 kernels of the K=8 lockstep LU (see kernel_amd64.go). Lane l of
// value-array entry t sits at vals[t*8+l]: 64 bytes per entry for float64,
// 128 for complex128, so entry offsets are index<<6 or index<<7.
//
// Registers shared by the factor kernels:
//   SI vals, DI inv, R8 cols, R9 rowPtr, R10 diag, R11 upd,
//   AX row i, CX schedule position p, R12 entry t, R13 diagonal position,
//   R14/R15 the pivot row's upper range (byte offsets), DX update target.

// BCAST broadcasts the 64-bit pattern BITS into Y through BX.
#define BCAST(BITS, X, Y) \
	MOVQ BITS, BX; \
	VMOVQ BX, X; \
	VBROADCASTSD X, Y

#define ONE $0x3FF0000000000000
#define ABS $0x7FFFFFFFFFFFFFFF
#define MAX $0x7FEFFFFFFFFFFFFF

// func factorReal8(vals, inv *float64, cols, rowPtr, diag, upd *int, failed *laneMask, i, n, p int) (next, pEnd int, mask uint64)
TEXT ·factorReal8(SB), NOSPLIT, $0-104
	MOVQ vals+0(FP), SI
	MOVQ inv+8(FP), DI
	MOVQ cols+16(FP), R8
	MOVQ rowPtr+24(FP), R9
	MOVQ diag+32(FP), R10
	MOVQ upd+40(FP), R11
	MOVQ failed+48(FP), AX
	VMOVUPD (AX), Y14
	VMOVUPD 32(AX), Y15
	MOVQ i+56(FP), AX
	MOVQ p+72(FP), CX
	VXORPD Y13, Y13, Y13
	BCAST(ONE, X12, Y12)
	BCAST(ABS, X10, Y10)
	BCAST(MAX, X11, Y11)

rrow:
	CMPQ AX, n+64(FP)
	JGE  rdone
	MOVQ (R9)(AX*8), R12
	MOVQ (R10)(AX*8), R13

rentry:
	CMPQ R12, R13
	JGE  rpivot
	// Multiplier l = vals[t]·inv[c] (Y0, Y1), stored back; Y2, Y3 mark
	// its zero lanes.
	MOVQ (R8)(R12*8), BX
	MOVQ R12, DX
	SHLQ $6, DX
	MOVQ BX, R14
	SHLQ $6, R14
	VMOVUPD (SI)(DX*1), Y0
	VMOVUPD 32(SI)(DX*1), Y1
	VMULPD  (DI)(R14*1), Y0, Y0
	VMULPD  32(DI)(R14*1), Y1, Y1
	VMOVUPD Y0, (SI)(DX*1)
	VMOVUPD Y1, 32(SI)(DX*1)
	VCMPPD  $0, Y13, Y0, Y2
	VCMPPD  $0, Y13, Y1, Y3
	MOVQ    (R10)(BX*8), R14
	INCQ    R14
	SHLQ    $6, R14
	MOVQ    8(R9)(BX*8), R15
	SHLQ    $6, R15

rupdate:
	// vals[upd[p]] -= l·vals[u], kept where l is zero.
	CMPQ      R14, R15
	JGE       rnext
	MOVQ      (R11)(CX*8), DX
	INCQ      CX
	SHLQ      $6, DX
	VMULPD    (SI)(R14*1), Y0, Y4
	VMULPD    32(SI)(R14*1), Y1, Y5
	VMOVUPD   (SI)(DX*1), Y6
	VMOVUPD   32(SI)(DX*1), Y7
	VSUBPD    Y4, Y6, Y4
	VSUBPD    Y5, Y7, Y5
	VBLENDVPD Y2, Y6, Y4, Y4
	VBLENDVPD Y3, Y7, Y5, Y5
	VMOVUPD   Y4, (SI)(DX*1)
	VMOVUPD   Y5, 32(SI)(DX*1)
	ADDQ      $64, R14
	JMP       rupdate

rnext:
	INCQ R12
	JMP  rentry

rpivot:
	// inv[i] = 1/d; undecided: d zero or NaN, or 1/d overflows.
	SHLQ      $6, R13
	VMOVUPD   (SI)(R13*1), Y0
	VMOVUPD   32(SI)(R13*1), Y1
	VDIVPD    Y0, Y12, Y4
	VDIVPD    Y1, Y12, Y5
	VCMPPD    $0, Y13, Y0, Y2
	VCMPPD    $3, Y0, Y0, Y6
	VORPD     Y6, Y2, Y2
	VANDPD    Y10, Y4, Y6
	VCMPPD    $6, Y11, Y6, Y6
	VORPD     Y6, Y2, Y2
	VCMPPD    $0, Y13, Y1, Y3
	VCMPPD    $3, Y1, Y1, Y7
	VORPD     Y7, Y3, Y3
	VANDPD    Y10, Y5, Y7
	VCMPPD    $6, Y11, Y7, Y7
	VORPD     Y7, Y3, Y3
	VBLENDVPD Y14, Y13, Y4, Y4
	VBLENDVPD Y15, Y13, Y5, Y5
	MOVQ      AX, BX
	SHLQ      $6, BX
	VMOVUPD   Y4, (DI)(BX*1)
	VMOVUPD   Y5, 32(DI)(BX*1)
	VANDNPD   Y2, Y14, Y2
	VANDNPD   Y3, Y15, Y3
	VMOVMSKPD Y2, BX
	VMOVMSKPD Y3, DX
	SHLQ      $4, DX
	ORQ       DX, BX
	INCQ      AX
	TESTQ     BX, BX
	JZ        rrow
	MOVQ      AX, next+80(FP)
	MOVQ      CX, pEnd+88(FP)
	MOVQ      BX, mask+96(FP)
	VZEROUPPER
	RET

rdone:
	MOVQ AX, next+80(FP)
	MOVQ CX, pEnd+88(FP)
	MOVQ $0, mask+96(FP)
	VZEROUPPER
	RET

// CMUL16 computes the multiplier chunk at OFF (two complex lanes):
// l = vals[t]·inv[c] with gc's (a·c − b·d, a·d + b·c), stores it, and
// leaves its real and imaginary parts duplicated in AR and AI and its zero
// lanes in M. Y15 holds zero; Y12–Y14 are scratch.
#define CMUL16(OFF, AR, AI, M) \
	VMOVUPD   OFF(SI)(DX*1), Y12; \
	VMOVDDUP  Y12, Y13; \
	VPERMILPD $0xF, Y12, Y14; \
	VPERMILPD $5, OFF(DI)(R14*1), Y12; \
	VMULPD    OFF(DI)(R14*1), Y13, Y13; \
	VMULPD    Y12, Y14, Y14; \
	VADDSUBPD Y14, Y13, Y13; \
	VMOVUPD   Y13, OFF(SI)(DX*1); \
	VMOVDDUP  Y13, AR; \
	VPERMILPD $0xF, Y13, AI; \
	VCMPPD    $0, Y15, Y13, Y12; \
	VPERMILPD $5, Y12, Y14; \
	VANDPD    Y14, Y12, M

// CUPD16 updates the chunk at OFF of target DX from source R14:
// v -= l·u, kept where l is zero.
#define CUPD16(OFF, AR, AI, M) \
	VMOVUPD   OFF(SI)(R14*1), Y12; \
	VPERMILPD $5, Y12, Y13; \
	VMULPD    Y12, AR, Y12; \
	VMULPD    Y13, AI, Y13; \
	VADDSUBPD Y13, Y12, Y12; \
	VMOVUPD   OFF(SI)(DX*1), Y13; \
	VSUBPD    Y12, Y13, Y12; \
	VBLENDVPD M, Y13, Y12, Y12; \
	VMOVUPD   Y12, OFF(SI)(DX*1)

// CPIV16 is the pivot step of four complex lanes, chunks O0 and O1 of the
// diagonal R13 and the reciprocal row BX: Smith's reciprocal with
// recipFinite's terms, computed on split real/imaginary vectors (lane
// order 0, 2, 1, 3 of the four) and interleaved back. Failed lanes get a
// zero reciprocal; OUT receives the undecided lanes, in lane order. Y12
// zero, Y13 one, Y14 the abs mask, Y15 MaxFloat64; DX and R15 are scratch.
#define CPIV16(O0, O1, OUT) \
	VMOVUPD   O0(SI)(R13*1), Y0; \
	VMOVUPD   O1(SI)(R13*1), Y1; \
	VUNPCKLPD Y1, Y0, Y2; \
	VUNPCKHPD Y1, Y0, Y3; \
	VANDPD    Y14, Y2, Y0; \
	VANDPD    Y14, Y3, Y1; \
	VCMPPD    $6, Y15, Y0, Y4; \
	VCMPPD    $6, Y15, Y1, Y5; \
	VORPD     Y5, Y4, Y4; \
	VCMPPD    $0, Y12, Y2, Y5; \
	VCMPPD    $0, Y12, Y3, Y6; \
	VANDPD    Y6, Y5, Y5; \
	VORPD     Y5, Y4, Y4; \
	VCMPPD    $13, Y1, Y0, Y5; \
	VBLENDVPD Y5, Y2, Y3, Y0; \
	VBLENDVPD Y5, Y3, Y2, Y1; \
	VDIVPD    Y0, Y1, Y2; \
	VMULPD    Y1, Y2, Y3; \
	VADDPD    Y3, Y0, Y3; \
	VMULPD    Y2, Y12, Y0; \
	VADDPD    Y0, Y13, Y1; \
	VADDPD    Y12, Y2, Y6; \
	VBLENDVPD Y5, Y1, Y6, Y1; \
	VSUBPD    Y2, Y12, Y6; \
	VSUBPD    Y13, Y0, Y0; \
	VBLENDVPD Y5, Y6, Y0, Y6; \
	VDIVPD    Y3, Y1, Y1; \
	VDIVPD    Y3, Y6, Y6; \
	VANDPD    Y14, Y1, Y0; \
	VCMPPD    $6, Y15, Y0, Y0; \
	VORPD     Y0, Y4, Y4; \
	VANDPD    Y14, Y6, Y0; \
	VCMPPD    $6, Y15, Y0, Y0; \
	VORPD     Y0, Y4, Y4; \
	VUNPCKLPD Y6, Y1, Y0; \
	VUNPCKHPD Y6, Y1, Y2; \
	MOVQ      failed+48(FP), DX; \
	VMOVUPD   O0(DX), Y5; \
	VMOVUPD   O1(DX), Y6; \
	VBLENDVPD Y5, Y12, Y0, Y0; \
	VBLENDVPD Y6, Y12, Y2, Y2; \
	VMOVUPD   Y0, O0(DI)(BX*1); \
	VMOVUPD   Y2, O1(DI)(BX*1); \
	VUNPCKLPD Y6, Y5, Y5; \
	VANDNPD   Y4, Y5, Y4; \
	VMOVMSKPD Y4, R15; \
	MOVQ      R15, OUT; \
	ANDQ      $9, OUT; \
	MOVQ      R15, DX; \
	ANDQ      $2, DX; \
	SHLQ      $1, DX; \
	ORQ       DX, OUT; \
	ANDQ      $4, R15; \
	SHRQ      $1, R15; \
	ORQ       R15, OUT

// func factorComplex8(vals, inv *complex128, cols, rowPtr, diag, upd *int, failed *laneMask, i, n, p int) (next, pEnd int, mask uint64)
TEXT ·factorComplex8(SB), NOSPLIT, $0-104
	MOVQ vals+0(FP), SI
	MOVQ inv+8(FP), DI
	MOVQ cols+16(FP), R8
	MOVQ rowPtr+24(FP), R9
	MOVQ diag+32(FP), R10
	MOVQ upd+40(FP), R11
	MOVQ i+56(FP), AX
	MOVQ p+72(FP), CX

crow:
	CMPQ AX, n+64(FP)
	JGE  cdone
	MOVQ (R9)(AX*8), R12
	MOVQ (R10)(AX*8), R13

centry:
	CMPQ   R12, R13
	JGE    cpivot
	MOVQ   (R8)(R12*8), BX
	MOVQ   R12, DX
	SHLQ   $7, DX
	MOVQ   BX, R14
	SHLQ   $7, R14
	VXORPD Y15, Y15, Y15
	CMUL16(0, Y0, Y1, Y8)
	CMUL16(32, Y2, Y3, Y9)
	CMUL16(64, Y4, Y5, Y10)
	CMUL16(96, Y6, Y7, Y11)
	MOVQ   (R10)(BX*8), R14
	INCQ   R14
	SHLQ   $7, R14
	MOVQ   8(R9)(BX*8), R15
	SHLQ   $7, R15

cupdate:
	CMPQ R14, R15
	JGE  cnext
	MOVQ (R11)(CX*8), DX
	INCQ CX
	SHLQ $7, DX
	CUPD16(0, Y0, Y1, Y8)
	CUPD16(32, Y2, Y3, Y9)
	CUPD16(64, Y4, Y5, Y10)
	CUPD16(96, Y6, Y7, Y11)
	ADDQ $128, R14
	JMP  cupdate

cnext:
	INCQ R12
	JMP  centry

cpivot:
	VXORPD Y12, Y12, Y12
	BCAST(ONE, X13, Y13)
	BCAST(ABS, X14, Y14)
	BCAST(MAX, X15, Y15)
	SHLQ   $7, R13
	MOVQ   AX, BX
	SHLQ   $7, BX
	CPIV16(0, 32, R12)
	CPIV16(64, 96, R14)
	SHLQ   $4, R14
	ORQ    R14, R12
	INCQ   AX
	TESTQ  R12, R12
	JZ     crow
	MOVQ   AX, next+80(FP)
	MOVQ   CX, pEnd+88(FP)
	MOVQ   R12, mask+96(FP)
	VZEROUPPER
	RET

cdone:
	MOVQ AX, next+80(FP)
	MOVQ CX, pEnd+88(FP)
	MOVQ $0, mask+96(FP)
	VZEROUPPER
	RET

// func fwdReal8(vals, pb *float64, cols, rowPtr, diag, rows *int, nrows int)
TEXT ·fwdReal8(SB), NOSPLIT, $0-56
	MOVQ vals+0(FP), SI
	MOVQ pb+8(FP), DI
	MOVQ cols+16(FP), R8
	MOVQ rowPtr+24(FP), R9
	MOVQ diag+32(FP), R10
	MOVQ rows+40(FP), R11
	MOVQ nrows+48(FP), CX
	XORQ AX, AX

rfrow:
	CMPQ    AX, CX
	JGE     rfdone
	MOVQ    (R11)(AX*8), BX
	MOVQ    (R9)(BX*8), R12
	MOVQ    (R10)(BX*8), R13
	SHLQ    $6, BX
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1

rfentry:
	CMPQ    R12, R13
	JGE     rfstore
	MOVQ    (R8)(R12*8), DX
	SHLQ    $6, DX
	MOVQ    R12, R14
	SHLQ    $6, R14
	VMOVUPD (SI)(R14*1), Y2
	VMOVUPD 32(SI)(R14*1), Y3
	VMULPD  (DI)(DX*1), Y2, Y2
	VMULPD  32(DI)(DX*1), Y3, Y3
	VSUBPD  Y2, Y0, Y0
	VSUBPD  Y3, Y1, Y1
	INCQ    R12
	JMP     rfentry

rfstore:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	INCQ    AX
	JMP     rfrow

rfdone:
	VZEROUPPER
	RET

// func backReal8(vals, pb, inv *float64, cols, rowPtr, diag *int, n, lo int)
TEXT ·backReal8(SB), NOSPLIT, $0-64
	MOVQ vals+0(FP), SI
	MOVQ pb+8(FP), DI
	MOVQ inv+16(FP), R11
	MOVQ cols+24(FP), R8
	MOVQ rowPtr+32(FP), R9
	MOVQ diag+40(FP), R10
	MOVQ n+48(FP), AX
	MOVQ lo+56(FP), CX
	DECQ AX

rbrow:
	CMPQ    AX, CX
	JLT     rbdone
	MOVQ    (R10)(AX*8), R12
	INCQ    R12
	MOVQ    8(R9)(AX*8), R13
	MOVQ    AX, BX
	SHLQ    $6, BX
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1

rbentry:
	CMPQ    R12, R13
	JGE     rbstore
	MOVQ    (R8)(R12*8), DX
	SHLQ    $6, DX
	MOVQ    R12, R14
	SHLQ    $6, R14
	VMOVUPD (SI)(R14*1), Y2
	VMOVUPD 32(SI)(R14*1), Y3
	VMULPD  (DI)(DX*1), Y2, Y2
	VMULPD  32(DI)(DX*1), Y3, Y3
	VSUBPD  Y2, Y0, Y0
	VSUBPD  Y3, Y1, Y1
	INCQ    R12
	JMP     rbentry

rbstore:
	VMULPD  (R11)(BX*1), Y0, Y0
	VMULPD  32(R11)(BX*1), Y1, Y1
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	DECQ    AX
	JMP     rbrow

rbdone:
	VZEROUPPER
	RET

// CSUB16 subtracts the product of the chunks at OFF of vals entry R14 and
// pb entry DX from the accumulator ACC.
#define CSUB16(OFF, ACC) \
	VMOVDDUP  OFF(SI)(R14*1), Y4; \
	VPERMILPD $0xF, OFF(SI)(R14*1), Y5; \
	VPERMILPD $5, OFF(DI)(DX*1), Y6; \
	VMULPD    OFF(DI)(DX*1), Y4, Y4; \
	VMULPD    Y6, Y5, Y5; \
	VADDSUBPD Y5, Y4, Y4; \
	VSUBPD    Y4, ACC, ACC

// CSCALE16 multiplies the accumulator ACC by the chunk at OFF of the
// reciprocal row BX.
#define CSCALE16(OFF, ACC) \
	VMOVDDUP  ACC, Y4; \
	VPERMILPD $0xF, ACC, Y5; \
	VPERMILPD $5, OFF(R11)(BX*1), Y6; \
	VMULPD    OFF(R11)(BX*1), Y4, Y4; \
	VMULPD    Y6, Y5, Y5; \
	VADDSUBPD Y5, Y4, ACC

// func fwdComplex8(vals, pb *complex128, cols, rowPtr, diag, rows *int, nrows int)
TEXT ·fwdComplex8(SB), NOSPLIT, $0-56
	MOVQ vals+0(FP), SI
	MOVQ pb+8(FP), DI
	MOVQ cols+16(FP), R8
	MOVQ rowPtr+24(FP), R9
	MOVQ diag+32(FP), R10
	MOVQ rows+40(FP), R11
	MOVQ nrows+48(FP), CX
	XORQ AX, AX

cfrow:
	CMPQ    AX, CX
	JGE     cfdone
	MOVQ    (R11)(AX*8), BX
	MOVQ    (R9)(BX*8), R12
	MOVQ    (R10)(BX*8), R13
	SHLQ    $7, BX
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3

cfentry:
	CMPQ   R12, R13
	JGE    cfstore
	MOVQ   (R8)(R12*8), DX
	SHLQ   $7, DX
	MOVQ   R12, R14
	SHLQ   $7, R14
	CSUB16(0, Y0)
	CSUB16(32, Y1)
	CSUB16(64, Y2)
	CSUB16(96, Y3)
	INCQ   R12
	JMP    cfentry

cfstore:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	INCQ    AX
	JMP     cfrow

cfdone:
	VZEROUPPER
	RET

// func backComplex8(vals, pb, inv *complex128, cols, rowPtr, diag *int, n, lo int)
TEXT ·backComplex8(SB), NOSPLIT, $0-64
	MOVQ vals+0(FP), SI
	MOVQ pb+8(FP), DI
	MOVQ inv+16(FP), R11
	MOVQ cols+24(FP), R8
	MOVQ rowPtr+32(FP), R9
	MOVQ diag+40(FP), R10
	MOVQ n+48(FP), AX
	MOVQ lo+56(FP), CX
	DECQ AX

cbrow:
	CMPQ    AX, CX
	JLT     cbdone
	MOVQ    (R10)(AX*8), R12
	INCQ    R12
	MOVQ    8(R9)(AX*8), R13
	MOVQ    AX, BX
	SHLQ    $7, BX
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3

cbentry:
	CMPQ   R12, R13
	JGE    cbstore
	MOVQ   (R8)(R12*8), DX
	SHLQ   $7, DX
	MOVQ   R12, R14
	SHLQ   $7, R14
	CSUB16(0, Y0)
	CSUB16(32, Y1)
	CSUB16(64, Y2)
	CSUB16(96, Y3)
	INCQ   R12
	JMP    cbentry

cbstore:
	CSCALE16(0, Y0)
	CSCALE16(32, Y1)
	CSCALE16(64, Y2)
	CSCALE16(96, Y3)
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	DECQ    AX
	JMP     cbrow

cbdone:
	VZEROUPPER
	RET
