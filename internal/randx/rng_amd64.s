#include "textflag.h"

// AVX2 kernel of one source.Int63s run (see rng_amd64.go). Step s of a run
// of k reads f[j] and t[j] with j = k−1−s, stores x = f[j]+t[j] to f[j]
// and x & (2⁶³−1) to out[s]. An iteration takes j = i … i+3, i = k−4, k−8,
// …, and writes out[k−4−i … k−1−i] with its lanes reversed.

// func int63sRun(f, t, out *int64, k int) int
TEXT ·int63sRun(SB), NOSPLIT, $0-40
	MOVQ f+0(FP), DI
	MOVQ t+8(FP), SI
	MOVQ out+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ CX, AX

	// Y15 = 2⁶³−1 in every lane.
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ   $1, Y15, Y15

loop:
	CMPQ AX, $4
	JLT  done
	SUBQ $4, AX
	VMOVDQU (DI)(AX*8), Y0
	VPADDQ  (SI)(AX*8), Y0, Y0
	VMOVDQU Y0, (DI)(AX*8)
	VPAND   Y15, Y0, Y0
	VPERMQ  $0x1B, Y0, Y0
	MOVQ    CX, BX
	SUBQ    AX, BX
	VMOVDQU Y0, -32(DX)(BX*8)
	JMP     loop

done:
	VZEROUPPER
	SUBQ AX, CX
	MOVQ CX, ret+32(FP)
	RET
