package linalg

import (
	"errors"
	"math"
)

// ErrSingular reports a (numerically) singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// LU holds an LU factorization with partial pivoting of a square matrix.
type LU struct {
	lu  *Matrix
	piv []int
}

// Factor computes the LU factorization of a. The input is not modified.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: LU of non-square matrix")
	}
	n := a.Rows
	f := &LU{lu: a.Clone(), piv: make([]int, n)}
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

// SolveSystem factors a and solves a x = b in one call.
func SolveSystem(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
