#include "textflag.h"

// AVX2 kernels of the LHS index pass and jitter (see lhs_amd64.go).
// Constants load through VBROADCASTSD from the table below, never through a
// legacy-SSE MOVSD between VEX instructions.

DATA lhs<>+0(SB)/8, $0x4330000000000000  // 2⁵², and its high dword for the low half
DATA lhs<>+8(SB)/8, $0x4530000000000000  // 2⁸⁴
DATA lhs<>+16(SB)/8, $0x4530000000100000 // 2⁸⁴ + 2⁵²
DATA lhs<>+24(SB)/8, $0x3C00000000000000 // 2⁻⁶³
DATA lhs<>+32(SB)/8, $0x3FF0000000000000 // 1
DATA lhs<>+40(SB)/8, $0x41E0000000000000 // 2³¹
DATA lhs<>+48(SB)/8, $0x4010000000000000 // 4
DATA lhs<>+56(SB)/8, $0x3FF0000000000000 // 1, 2, 3, 4: m of the first group
DATA lhs<>+64(SB)/8, $0x4000000000000000
DATA lhs<>+72(SB)/8, $0x4008000000000000
DATA lhs<>+80(SB)/8, $0x4010000000000000
GLOBL lhs<>(SB), RODATA|NOPTR, $88

// Registers: DI k, SI blk, CX n, AX the group's index, Y15 = 2⁵²,
// Y14 = m, Y13 = 4, Y12 = 2³¹.

// func permIndex4(k *int32, blk *int64, n int) int
TEXT ·permIndex4(SB), NOSPLIT, $0-32
	MOVQ k+0(FP), DI
	MOVQ blk+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VBROADCASTSD lhs<>+0(SB), Y15
	VMOVUPD      lhs<>+56(SB), Y14
	VBROADCASTSD lhs<>+48(SB), Y13
	VBROADCASTSD lhs<>+40(SB), Y12

loop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  done

	// v = blk[i]>>32 as a double, exactly: OR it into 2⁵²'s mantissa and
	// subtract 2⁵².
	VMOVDQU (SI)(AX*8), Y0
	VPSRLQ  $32, Y0, Y0
	VPOR    Y15, Y0, Y0
	VSUBPD  Y15, Y0, Y0

	// q = ⌊v/m⌋, m·q and m·q + m, all exact below 2³².
	VDIVPD   Y14, Y0, Y1
	VROUNDPD $1, Y1, Y1
	VMULPD   Y14, Y1, Y1
	VADDPD   Y14, Y1, Y2

	// Int31n rejects v ≥ m·⌊2³¹/m⌋, that is m·q + m > 2³¹.
	VCMPPD    $1, Y2, Y12, Y2
	VMOVMSKPD Y2, BX
	TESTQ     BX, BX
	JNE       done

	// k = v − m·q, as int32.
	VSUBPD      Y1, Y0, Y0
	VCVTTPD2DQY Y0, X0
	VMOVDQU     X0, (DI)(AX*4)
	VADDPD      Y13, Y14, Y14
	MOVQ        DX, AX
	JMP         loop

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// Registers: DI u, DX perm, SI vals, CX cnt, AX the group's index,
// Y15 = 2⁵², Y14 = 2⁸⁴, Y13 = 2⁸⁴ + 2⁵², Y12 = 2⁻⁶³, Y11 = 1, Y10 = n,
// Y9 = lo, Y8 = hi, Y7 = 0.

// func jitter4(u *float64, perm *int32, vals *int64, cnt int, n, lo, hi float64) int
TEXT ·jitter4(SB), NOSPLIT, $0-64
	MOVQ u+0(FP), DI
	MOVQ perm+8(FP), DX
	MOVQ vals+16(FP), SI
	MOVQ cnt+24(FP), CX
	XORQ AX, AX
	VBROADCASTSD lhs<>+0(SB), Y15
	VBROADCASTSD lhs<>+8(SB), Y14
	VBROADCASTSD lhs<>+16(SB), Y13
	VBROADCASTSD lhs<>+24(SB), Y12
	VBROADCASTSD lhs<>+32(SB), Y11
	VBROADCASTSD n+32(FP), Y10
	VBROADCASTSD lo+40(FP), Y9
	VBROADCASTSD hi+48(FP), Y8
	VXORPD       Y7, Y7, Y7

loop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  done

	// float64(x) for x < 2⁶³: (2⁸⁴ + hi·2³²) − (2⁸⁴ + 2⁵²) is exact, and
	// adding 2⁵² + lo rounds once. Then f = x·2⁻⁶³, exact.
	VMOVDQU  (SI)(AX*8), Y0
	VPSRLQ   $32, Y0, Y1
	VPOR     Y14, Y1, Y1
	VSUBPD   Y13, Y1, Y1
	VPBLENDD $0xAA, Y15, Y0, Y0
	VADDPD   Y0, Y1, Y1
	VMULPD   Y12, Y1, Y1

	// An f that rounds to 1 is redrawn: the scalar loop takes the group.
	VCMPPD    $0, Y11, Y1, Y2
	VMOVMSKPD Y2, R8
	TESTQ     R8, R8
	JNE       done

	// u = (perm + f)/n; u ≤ 0 becomes lo, then u ≥ 1 becomes hi.
	VCVTDQ2PD (DX)(AX*4), Y0
	VADDPD    Y1, Y0, Y0
	VDIVPD    Y10, Y0, Y0
	VCMPPD    $2, Y7, Y0, Y2
	VBLENDVPD Y2, Y9, Y0, Y0
	VCMPPD    $2, Y0, Y11, Y2
	VBLENDVPD Y2, Y8, Y0, Y0

	// u[perm[i]] = lane i: stratum order.
	MOVL         0(DX)(AX*4), R9
	MOVL         4(DX)(AX*4), R10
	MOVL         8(DX)(AX*4), R11
	MOVL         12(DX)(AX*4), R12
	VMOVSD       X0, (DI)(R9*8)
	VMOVHPD      X0, (DI)(R10*8)
	VEXTRACTF128 $1, Y0, X1
	VMOVSD       X1, (DI)(R11*8)
	VMOVHPD      X1, (DI)(R12*8)
	MOVQ         BX, AX
	JMP          loop

done:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET
