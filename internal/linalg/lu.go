package linalg

import (
	"errors"
	"math"
)

// ErrSingular reports a (numerically) singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// LU holds an LU factorization with partial pivoting of a square matrix.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
}

// Factor computes the LU factorization of a. The input is not modified.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: LU of non-square matrix")
	}
	n := a.Rows
	f := &LU{lu: a.Clone(), piv: make([]int, n), sign: 1}
	lu := f.lu
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest |a[i][k]| for i >= k.
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > max {
				p, max = i, a
			}
		}
		if max == 0 || math.IsNaN(max) {
			return nil, ErrSingular
		}
		if p != k {
			rowP := lu.Data[p*n : (p+1)*n]
			rowK := lu.Data[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				rowP[j], rowK[j] = rowK[j], rowP[j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
			f.sign = -f.sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			rowI := lu.Data[i*n : (i+1)*n]
			rowK := lu.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return f, nil
}

// Solve solves A x = b for one right-hand side.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, errors.New("linalg: rhs length mismatch")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Backward substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveSystem factors a and solves a x = b in one call.
func SolveSystem(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// SolveInPlace solves a x = b destructively: a is overwritten with its LU
// factors and b with the solution. It performs the identical arithmetic to
// Factor + Solve — row swaps are applied to b as they happen instead of
// through a final permutation — so results are bit-identical, without the
// factorization clone and solution allocation. It is the allocation-free primitive under
// hot Newton loops (internal/spice) that re-stamp a every iteration anyway.
func SolveInPlace(a *Matrix, b []float64) error {
	if a.Rows != a.Cols {
		return errors.New("linalg: LU of non-square matrix")
	}
	n := a.Rows
	if len(b) != n {
		return errors.New("linalg: rhs length mismatch")
	}
	for k := 0; k < n; k++ {
		p, max := k, math.Abs(a.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a.At(i, k)); v > max {
				p, max = i, v
			}
		}
		if max == 0 || math.IsNaN(max) {
			return ErrSingular
		}
		if p != k {
			rowP := a.Data[p*n : (p+1)*n]
			rowK := a.Data[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				rowP[j], rowK[j] = rowK[j], rowP[j]
			}
			b[p], b[k] = b[k], b[p]
		}
		pivot := a.At(k, k)
		for i := k + 1; i < n; i++ {
			m := a.At(i, k) / pivot
			a.Set(i, k, m)
			if m == 0 {
				continue
			}
			rowI := a.Data[i*n : (i+1)*n]
			rowK := a.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		row := a.Data[i*n : (i+1)*n]
		s := b[i]
		for j := 0; j < i; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s
	}
	// Backward substitution.
	for i := n - 1; i >= 0; i-- {
		row := a.Data[i*n : (i+1)*n]
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * b[j]
		}
		d := row[i]
		if d == 0 {
			return ErrSingular
		}
		b[i] = s / d
	}
	return nil
}
