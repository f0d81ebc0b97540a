package randx

import "github.com/eda-go/moheco/internal/cpufeat"

// AVX2 form of NormQuantiles: four lanes of √2·erf⁻¹(2p−1) per step, in
// quantile_amd64.s. Every lane keeps the exact operation sequence of the
// scalar NormQuantile (math.Erfinv, and for its tail branch math.Log as
// log_amd64.s computes it), so both paths give the same bits; see
// DESIGN.md "Sample-plan and surrogate cost":
//
//   - gc never fuses a multiply and an add on amd64 (only math.FMA), so
//     VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD round exactly like the scalar
//     operations, element by element;
//   - both branches of erf⁻¹ run on every lane and a per-lane blend picks
//     one, with the branch test of the scalar code (|x| ≤ 0.85);
//   - lanes the kernel cannot decide — NaN, |2p−1| not below 1 (p ≤ 0,
//     p ≥ 1, or p so small that 2p−1 rounds to −1) and tail lanes past
//     r = 5, where erf⁻¹ switches to its far-tail polynomials — stop the
//     kernel at their group of four, which the scalar code then converts.

// useAVX2 selects the assembly kernel. It is fixed at start-up from CPUID
// and switched only by in-package tests, to run both paths.
var useAVX2 = cpufeat.AVX2

// normQuantiles4 converts p[0:n] in place, four values at a time, and stops
// at the first group of four that holds an undecided lane, or when fewer
// than four values are left. It returns the number of values converted, a
// multiple of four; the group at that index, if whole, is the undecided one.
//
//go:noescape
func normQuantiles4(p *float64, n int) int

// quantilesSIMD converts the groups of four at the head of p through the
// assembly kernel, an undecided group through NormQuantile, and returns the
// tail of fewer than four values it left for the caller.
func quantilesSIMD(p []float64) []float64 {
	if !useAVX2 {
		return p
	}
	for len(p) >= 4 {
		p = p[normQuantiles4(&p[0], len(p)):]
		if len(p) < 4 {
			break
		}
		for i, v := range p[:4] {
			p[i] = NormQuantile(v)
		}
		p = p[4:]
	}
	return p
}
