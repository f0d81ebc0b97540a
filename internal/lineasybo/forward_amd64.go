package lineasybo

import "github.com/eda-go/moheco/internal/cpufeat"

// AVX2 form of forwardSolve4: the four right-hand sides are the four lanes
// of one YMM register, and forward_amd64.s solves four rows of L per pass
// so that four independent subtraction chains are in flight. Every lane
// keeps the Go form's operation sequence, s − l·v[k] for k increasing and
// then s / l[i][i], so both paths give the same bits (see DESIGN.md
// "Sample-plan and surrogate cost"): gc never fuses a multiply and an add
// on amd64 (only math.FMA), so VMULPD, VSUBPD and VDIVPD round exactly like
// the scalar operations, element by element.

// useAVX2 selects the assembly kernel. It is fixed at start-up from CPUID
// and switched only by in-package tests, to run both paths.
var useAVX2 = cpufeat.AVX2

// fwdSolve4 solves rows 0 … n−1 of L·v = b, with L packed row after row
// (row i at l[i(i+1)/2]).
//
//go:noescape
func fwdSolve4(l *float64, b, v *[4]float64, n int)

// forwardSolve4SIMD runs forwardSolve4 through the assembly kernel and
// reports whether it did; false leaves the solve to the Go form.
func forwardSolve4SIMD(flat []float64, b, v [][4]float64) bool {
	if !useAVX2 || len(b) == 0 {
		return false
	}
	fwdSolve4(&flat[0], &b[0], &v[0], len(b))
	return true
}
