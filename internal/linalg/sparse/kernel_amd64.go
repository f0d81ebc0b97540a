package sparse

import (
	"unsafe"

	"github.com/eda-go/moheco/internal/cpufeat"
)

// AVX2 form of the constant-width K=8 kernel (batch8.go), for float64 and
// complex128. The four steps of a factorization and solve — the multiplier
// with its zero-skip guard, the schedule update, the pivot reciprocal and
// the forward/back substitution — run in kernel_amd64.s, one call for a
// run of elimination rows and one for each substitution sweep. Every lane
// keeps the exact floating-point sequence of the Go kernel, so either path
// gives the same bits (see DESIGN.md "Lockstep kernel"):
//
//   - gc never fuses a multiply and an add on amd64 (only math.FMA, which
//     the package does not call), so VMULPD/VADDPD/VSUBPD/VDIVPD round
//     exactly like the scalar SSE2 operations, element by element;
//   - the complex product (a·c − b·d, a·d + b·c) that gc lowers complex128
//     multiplication to is VMOVDDUP + VPERMILPD + VADDSUBPD;
//   - the guard is a per-lane blend: a lane whose multiplier is zero keeps
//     its value, exactly as the Go loop skips its update;
//   - the pivot step computes all eight reciprocals (Smith's with
//     recipFinite's literal terms for complex, its |re| ≥ |im| branch a
//     blend) and hands back the lanes it cannot decide — a zero, NaN or
//     infinite part, an overflowing reciprocal — to the scalar
//     realPivot/complexPivot, so verdicts and errors are unchanged.
//
// Lanes that failed an earlier pivot get a zero reciprocal in the assembly
// too; they are never reported again.

// useAVX2 selects the assembly kernels. It is fixed at start-up from CPUID
// and switched only by in-package tests, to run both paths.
var useAVX2 = cpufeat.AVX2

// laneMask marks failed lanes for the assembly blends: all ones in every
// float64 slot of a failed lane (one slot per real lane, two per complex
// lane), zero elsewhere.
type laneMask [2 * kernelWidth]uint64

// The assembly kernels. factor* eliminates rows i, i+1, … < n, consuming
// the schedule from upd[p], and stops after the first row whose pivot step
// left lanes undecided, returning the next row, the schedule position and
// the undecided lanes (bit l = lane l); mask 0 means it reached row n.
// fwd* forward-substitutes the listed rows, back* back-substitutes rows
// n-1 down to lo and scales them by the pivot reciprocals.

//go:noescape
func factorReal8(vals, inv *float64, cols, rowPtr, diag, upd *int, failed *laneMask, i, n, p int) (next, pEnd int, mask uint64)

//go:noescape
func factorComplex8(vals, inv *complex128, cols, rowPtr, diag, upd *int, failed *laneMask, i, n, p int) (next, pEnd int, mask uint64)

//go:noescape
func fwdReal8(vals, pb *float64, cols, rowPtr, diag, rows *int, nrows int)

//go:noescape
func fwdComplex8(vals, pb *complex128, cols, rowPtr, diag, rows *int, nrows int)

//go:noescape
func backReal8(vals, pb, inv *float64, cols, rowPtr, diag *int, n, lo int)

//go:noescape
func backComplex8(vals, pb, inv *complex128, cols, rowPtr, diag *int, n, lo int)

// factorize8SIMD runs factorize8 through the assembly kernel and reports
// whether it did; false leaves the factorization to the Go kernel.
func (m *BatchMatrix[T]) factorize8SIMD() bool {
	if !useAVX2 {
		return false
	}
	s := m.sym
	for l := range m.errs {
		m.errs[l] = nil
	}
	var failed laneMask
	cols, rowPtr, diag, upd := unsafe.SliceData(s.cols), unsafe.SliceData(s.rowPtr), unsafe.SliceData(s.diag), unsafe.SliceData(s.upd)
	switch mm := any(m).(type) {
	case *BatchMatrix[float64]:
		vals, inv := unsafe.SliceData(mm.vals), unsafe.SliceData(mm.inv)
		for i, p := 0, 0; i < s.n; {
			var mask uint64
			i, p, mask = factorReal8(vals, inv, cols, rowPtr, diag, upd, &failed, i, s.n, p)
			mm.undecided(i-1, mask, &failed, 1, realPivot)
		}
	case *BatchMatrix[complex128]:
		vals, inv := unsafe.SliceData(mm.vals), unsafe.SliceData(mm.inv)
		for i, p := 0, 0; i < s.n; {
			var mask uint64
			i, p, mask = factorComplex8(vals, inv, cols, rowPtr, diag, upd, &failed, i, s.n, p)
			mm.undecided(i-1, mask, &failed, 2, complexPivot)
		}
	}
	return true
}

// undecided runs the scalar pivot step on the lanes of row i that the
// assembly left undecided (mask), marks the lanes that fail in failed
// (slots mask words per lane: 1 real, 2 complex), and numbers the verdicts
// like the Go kernel's pivot step.
func (m *BatchMatrix[T]) undecided(i int, mask uint64, failed *laneMask, slots int, pivot func(T) (T, error)) {
	if mask == 0 {
		return
	}
	const k = kernelWidth
	d := m.vals[m.sym.diag[i]*k : m.sym.diag[i]*k+k]
	bad := false
	for l := 0; l < k; l++ {
		if mask&(1<<l) == 0 {
			continue
		}
		var verdict error
		if m.inv[i*k+l], verdict = pivot(d[l]); verdict != nil {
			m.errs[l], bad = verdict, true
			for j := 0; j < slots; j++ {
				failed[l*slots+j] = ^uint64(0)
			}
		}
	}
	if bad {
		m.pivotErrs(i)
	}
}

// solve8SIMD runs solve8 through the assembly kernel and reports whether it
// did; false leaves the substitution to the Go kernel.
func (m *BatchMatrix[T]) solve8SIMD(b []T, r *Reach) bool {
	if !useAVX2 {
		return false
	}
	const k = kernelWidth
	s := m.sym
	pb := m.pb
	for _, i := range r.fwd {
		*(*[k]T)(pb[i*k:]) = *(*[k]T)(b[s.rowInv[i]*k:])
	}
	cols, rowPtr, diag, rows := unsafe.SliceData(s.cols), unsafe.SliceData(s.rowPtr), unsafe.SliceData(s.diag), unsafe.SliceData(r.fwd)
	switch mm := any(m).(type) {
	case *BatchMatrix[float64]:
		vals, pb, inv := unsafe.SliceData(mm.vals), unsafe.SliceData(mm.pb), unsafe.SliceData(mm.inv)
		fwdReal8(vals, pb, cols, rowPtr, diag, rows, len(r.fwd))
		backReal8(vals, pb, inv, cols, rowPtr, diag, s.n, r.lo)
	case *BatchMatrix[complex128]:
		vals, pb, inv := unsafe.SliceData(mm.vals), unsafe.SliceData(mm.pb), unsafe.SliceData(mm.inv)
		fwdComplex8(vals, pb, cols, rowPtr, diag, rows, len(r.fwd))
		backComplex8(vals, pb, inv, cols, rowPtr, diag, s.n, r.lo)
	}
	for _, c := range r.out {
		*(*[k]T)(b[c*k:]) = *(*[k]T)(pb[s.colPerm[c]*k:])
	}
	return true
}
