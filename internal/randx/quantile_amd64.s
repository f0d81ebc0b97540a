#include "textflag.h"

// AVX2 kernel of NormQuantiles (see quantile_amd64.go): Φ⁻¹(p) = √2·erf⁻¹(2p−1)
// on four lanes per step, each lane in the literal operation order of
// math.Erfinv and of math.Log as log_amd64.s computes it. Constants load
// through VBROADCASTSD from the table below: a legacy-SSE MOVSD/MOVQ into
// an X register between AVX instructions costs a state-transition stall.

DATA nq<>+0(SB)/8, $0x3FF0000000000000   // 1
DATA nq<>+8(SB)/8, $0x4000000000000000   // 2
DATA nq<>+16(SB)/8, $0x7FFFFFFFFFFFFFFF  // |x| mask
DATA nq<>+24(SB)/8, $0x8000000000000000  // sign mask
DATA nq<>+32(SB)/8, $0x3FEB333333333333  // 0.85, erf⁻¹'s branch point
DATA nq<>+40(SB)/8, $0x3FC71EB851EB851F  // 0.180625
DATA nq<>+48(SB)/8, $0x3FD0000000000000  // 0.25
DATA nq<>+56(SB)/8, $0x3FF32917A42157D1  // a0 … a7 (central numerator)
DATA nq<>+64(SB)/8, $0x4047894DD814BFA3
DATA nq<>+72(SB)/8, $0x4085C88056B01502
DATA nq<>+80(SB)/8, $0x40B2F6E30B2EC51E
DATA nq<>+88(SB)/8, $0x40CFB5EE66E5A285
DATA nq<>+96(SB)/8, $0x40D73982A6012AFB
DATA nq<>+104(SB)/8, $0x40C715BF25FF1D11
DATA nq<>+112(SB)/8, $0x408BB8C0A7936704
DATA nq<>+120(SB)/8, $0x3FF0000000000000 // b0 … b7 (central denominator)
DATA nq<>+128(SB)/8, $0x4045281B386E1AB5
DATA nq<>+136(SB)/8, $0x4085797EFDC8B3F7
DATA nq<>+144(SB)/8, $0x40B512322E75C89F
DATA nq<>+152(SB)/8, $0x40D4B772D5D65266
DATA nq<>+160(SB)/8, $0x40E3317CAA64F4BE
DATA nq<>+168(SB)/8, $0x40DC0E457CB1AE76
DATA nq<>+176(SB)/8, $0x40B46A7ECA984B69
DATA nq<>+184(SB)/8, $0x3FF6C665FDE9526A // c0 … c7 (tail numerator)
DATA nq<>+192(SB)/8, $0x4012857748CAB19B
DATA nq<>+200(SB)/8, $0x401713F71462256A
DATA nq<>+208(SB)/8, $0x400D2ECB1A3D02C4
DATA nq<>+216(SB)/8, $0x3FF453CC085375B2
DATA nq<>+224(SB)/8, $0x3FCEF2ABB9B85C37
DATA nq<>+232(SB)/8, $0x3F9744EB6C45EC67
DATA nq<>+240(SB)/8, $0x3F49615AC0B7ACE9
DATA nq<>+248(SB)/8, $0x3FF6A09E667F3BCD // d0 … d7 (tail denominator)
DATA nq<>+256(SB)/8, $0x40073AAD9BCA5405
DATA nq<>+264(SB)/8, $0x4002F7543FF6BA47
DATA nq<>+272(SB)/8, $0x3FEF371E4F4DE1A0
DATA nq<>+280(SB)/8, $0x3FCACF476A756D3D
DATA nq<>+288(SB)/8, $0x3F960290AF9F12BC
DATA nq<>+296(SB)/8, $0x3F496042AB9205BE
DATA nq<>+304(SB)/8, $0x3E19876E6013E192
DATA nq<>+312(SB)/8, $0x3FE62E42FEFA39EF // math.Ln2
DATA nq<>+320(SB)/8, $0x3FF999999999999A // 1.6
DATA nq<>+328(SB)/8, $0x4014000000000000 // 5, the far-tail branch point
DATA nq<>+336(SB)/8, $0x3FF6A09E667F3BCD // math.Sqrt2
DATA nq<>+344(SB)/8, $0x000FFFFFFFFFFFFF // mantissa mask
DATA nq<>+352(SB)/8, $0x3FE0000000000000 // 0.5
DATA nq<>+360(SB)/8, $0x3FE6A09E667F3BCD // √2/2 as log_amd64.s rounds it
DATA nq<>+368(SB)/8, $0x3FE5555555555593 // L1 … L7 (log)
DATA nq<>+376(SB)/8, $0x3FD999999997FA04
DATA nq<>+384(SB)/8, $0x3FD2492494229359
DATA nq<>+392(SB)/8, $0x3FCC71C51D8E78AF
DATA nq<>+400(SB)/8, $0x3FC7466496CB03DE
DATA nq<>+408(SB)/8, $0x3FC39A09D078C69F
DATA nq<>+416(SB)/8, $0x3FC2F112DF3E5244
DATA nq<>+424(SB)/8, $0x3FE62E42FEE00000 // Ln2Hi
DATA nq<>+432(SB)/8, $0x3DEA39EF35793C76 // Ln2Lo
DATA nq<>+440(SB)/8, $0x4330000000000000 // 2⁵²
DATA nq<>+448(SB)/8, $0x408FF00000000000 // 1022, the exponent bias of frexp
GLOBL nq<>(SB), RODATA|NOPTR, $456

#define A0 56
#define B0 120
#define C0 184
#define D0 248

// HORNER evaluates the two degree-7 chains ((((((k7·r+k6)·r+k5)…)·r+k0
// with coefficients at table offsets P (into Z1) and Q (into Z2),
// interleaved for ILP; T1 and T2 hold the broadcast coefficients.
#define HSTEP(R, Z1, Z2, T1, T2, P, Q) \
	VBROADCASTSD nq<>+P(SB), T1; \
	VBROADCASTSD nq<>+Q(SB), T2; \
	VADDPD       T1, Z1, Z1; \
	VADDPD       T2, Z2, Z2; \
	VMULPD       R, Z1, Z1; \
	VMULPD       R, Z2, Z2

#define HORNER(R, Z1, Z2, T1, T2, P, Q) \
	VBROADCASTSD nq<>+P+56(SB), Z1; \
	VBROADCASTSD nq<>+Q+56(SB), Z2; \
	VMULPD       R, Z1, Z1; \
	VMULPD       R, Z2, Z2; \
	HSTEP(R, Z1, Z2, T1, T2, P+48, Q+48); \
	HSTEP(R, Z1, Z2, T1, T2, P+40, Q+40); \
	HSTEP(R, Z1, Z2, T1, T2, P+32, Q+32); \
	HSTEP(R, Z1, Z2, T1, T2, P+24, Q+24); \
	HSTEP(R, Z1, Z2, T1, T2, P+16, Q+16); \
	HSTEP(R, Z1, Z2, T1, T2, P+8, Q+8); \
	VBROADCASTSD nq<>+P(SB), T1; \
	VBROADCASTSD nq<>+Q(SB), T2; \
	VADDPD       T1, Z1, Z1; \
	VADDPD       T2, Z2, Z2

// Registers: SI p, CX n, AX the group's index, DX the next group's index,
// Y14 = 1, Y15 = 2, Y2 = |x|, Y3 = sign bit of x, Y5 = central-branch mask,
// Y8 = the answer.

// func normQuantiles4(p *float64, n int) int
TEXT ·normQuantiles4(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ AX, AX
	VBROADCASTSD nq<>+0(SB), Y14
	VBROADCASTSD nq<>+8(SB), Y15

loop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  done

	// x = 2p − 1; NormQuantile's x is Erfinv's argument.
	VMOVUPD      (SI)(AX*8), Y0
	VMULPD       Y15, Y0, Y1
	VSUBPD       Y14, Y1, Y1
	VBROADCASTSD nq<>+16(SB), Y0
	VANDPD       Y0, Y1, Y2
	VBROADCASTSD nq<>+24(SB), Y0
	VANDPD       Y0, Y1, Y3

	// Undecided unless |x| < 1 (false for NaN): Erfinv's special cases.
	VCMPPD    $1, Y14, Y2, Y4
	VMOVMSKPD Y4, BX
	CMPQ      BX, $15
	JNE       done

	// Central branch, |x| ≤ 0.85: r = 0.180625 − 0.25·x·x,
	// answer (x·z1)/z2. A group with no central lane skips it: the blend
	// below then takes every lane from the tail branch.
	VBROADCASTSD nq<>+32(SB), Y0
	VCMPPD       $2, Y0, Y2, Y5
	VMOVMSKPD    Y5, BX
	TESTQ        BX, BX
	JEQ          tail
	VBROADCASTSD nq<>+48(SB), Y6
	VMULPD       Y2, Y6, Y6
	VMULPD       Y2, Y6, Y6
	VBROADCASTSD nq<>+40(SB), Y0
	VSUBPD       Y6, Y0, Y6
	HORNER(Y6, Y8, Y9, Y10, Y11, A0, B0)
	VMULPD       Y8, Y2, Y8
	VDIVPD       Y9, Y8, Y8
	VMOVMSKPD    Y5, BX
	CMPQ         BX, $15
	JEQ          store

	// Tail branch: r = √(Ln2 − log(1 − x)). log as log_amd64.s: frexp by
	// bit masks (f1 in [0.5, 1), k = exponent − 1022, a double exactly
	// through the 2⁵² OR-and-subtract), then
	// if !(√2/2 < f1) { k -= 1; f1 *= 2 }.
tail:
	VSUBPD       Y2, Y14, Y6
	VBROADCASTSD nq<>+344(SB), Y0
	VANDPD       Y0, Y6, Y7
	VBROADCASTSD nq<>+352(SB), Y0
	VORPD        Y0, Y7, Y7
	VPSRLQ       $52, Y6, Y9
	VBROADCASTSD nq<>+440(SB), Y0
	VPOR         Y0, Y9, Y9
	VSUBPD       Y0, Y9, Y9
	VBROADCASTSD nq<>+448(SB), Y0
	VSUBPD       Y0, Y9, Y9
	VBROADCASTSD nq<>+360(SB), Y0
	VCMPPD       $5, Y7, Y0, Y10
	VANDPD       Y14, Y10, Y10
	VSUBPD       Y10, Y9, Y9
	VADDPD       Y14, Y10, Y10
	VMULPD       Y10, Y7, Y7

	// f = f1 − 1, s = f/(2+f), s2 = s·s, s4 = s2·s2.
	VSUBPD Y14, Y7, Y7
	VADDPD Y7, Y15, Y10
	VDIVPD Y10, Y7, Y10
	VMULPD Y10, Y10, Y11
	VMULPD Y11, Y11, Y12

	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7))) in Y13,
	// t2 = s4·(L2 + s4·(L4 + s4·L6)) in Y1, R = t1 + t2.
	VBROADCASTSD nq<>+416(SB), Y13
	VBROADCASTSD nq<>+408(SB), Y1
	VMULPD       Y12, Y13, Y13
	VMULPD       Y12, Y1, Y1
	VBROADCASTSD nq<>+400(SB), Y0
	VADDPD       Y0, Y13, Y13
	VBROADCASTSD nq<>+392(SB), Y0
	VADDPD       Y0, Y1, Y1
	VMULPD       Y12, Y13, Y13
	VMULPD       Y12, Y1, Y1
	VBROADCASTSD nq<>+384(SB), Y0
	VADDPD       Y0, Y13, Y13
	VBROADCASTSD nq<>+376(SB), Y0
	VADDPD       Y0, Y1, Y1
	VMULPD       Y12, Y13, Y13
	VMULPD       Y12, Y1, Y1
	VBROADCASTSD nq<>+368(SB), Y0
	VADDPD       Y0, Y13, Y13
	VMULPD       Y11, Y13, Y13
	VADDPD       Y1, Y13, Y13

	// hfsq = 0.5·f·f; log = k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f).
	VBROADCASTSD nq<>+352(SB), Y0
	VMULPD       Y7, Y0, Y0
	VMULPD       Y7, Y0, Y0
	VADDPD       Y0, Y13, Y13
	VMULPD       Y13, Y10, Y10
	VBROADCASTSD nq<>+432(SB), Y1
	VMULPD       Y9, Y1, Y1
	VADDPD       Y1, Y10, Y10
	VSUBPD       Y10, Y0, Y0
	VSUBPD       Y7, Y0, Y0
	VBROADCASTSD nq<>+424(SB), Y1
	VMULPD       Y1, Y9, Y9
	VSUBPD       Y0, Y9, Y9

	// r = √(Ln2 − log). A tail lane past r = 5 is undecided.
	VBROADCASTSD nq<>+312(SB), Y0
	VSUBPD       Y9, Y0, Y0
	VSQRTPD      Y0, Y0
	VBROADCASTSD nq<>+328(SB), Y1
	VCMPPD       $2, Y1, Y0, Y1
	VORPD        Y5, Y1, Y1
	VMOVMSKPD    Y1, BX
	CMPQ         BX, $15
	JNE          done

	// r −= 1.6, answer z1/z2; blend the branches by the central mask.
	VBROADCASTSD nq<>+320(SB), Y1
	VSUBPD       Y1, Y0, Y0
	HORNER(Y0, Y6, Y7, Y10, Y11, C0, D0)
	VDIVPD       Y7, Y6, Y6
	VBLENDVPD    Y5, Y8, Y6, Y8

store:
	// Erfinv negates for x < 0 (x is never −0 here), then the √2 factor.
	VXORPD       Y3, Y8, Y8
	VBROADCASTSD nq<>+336(SB), Y0
	VMULPD       Y0, Y8, Y8
	VMOVUPD      Y8, (SI)(AX*8)
	MOVQ         DX, AX
	JMP          loop

done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET
