package linalg

import (
	"errors"
	"math"
	"math/cmplx"
)

// CMatrix is a dense row-major complex matrix, the shape of an MNA AC system
// where conductance and susceptance stamps combine as G + jωC.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix returns a zero complex matrix with the given shape.
func NewCMatrix(rows, cols int) *CMatrix {
	return &CMatrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// At returns element (i, j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *CMatrix) Clone() *CMatrix {
	c := NewCMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// cabs1 is the pivot-selection magnitude |re| + |im| — LAPACK's cabs1, a
// factor-√2 approximation of the modulus that avoids a hypot (square root)
// per candidate element.
func cabs1(v complex128) float64 {
	return math.Abs(real(v)) + math.Abs(imag(v))
}

// CSolve solves the complex system a x = b by LU with partial pivoting.
// The input matrix is overwritten with its LU factors (callers pass scratch
// copies); b is left alone.
func CSolve(a *CMatrix, b []complex128) ([]complex128, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: CSolve of non-square matrix")
	}
	n := a.Rows
	if len(b) != n {
		return nil, errors.New("linalg: rhs length mismatch")
	}
	x := append([]complex128(nil), b...)
	d := a.Data
	for k := 0; k < n; k++ {
		p, max := k, cabs1(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := cabs1(d[i*n+k]); v > max {
				p, max = i, v
			}
		}
		if max == 0 || math.IsNaN(max) {
			return nil, ErrSingular
		}
		rowK := d[k*n : (k+1)*n]
		if p != k {
			rowP := d[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				rowP[j], rowK[j] = rowK[j], rowP[j]
			}
			x[p], x[k] = x[k], x[p]
		}
		// One reciprocal per pivot column; the multipliers then cost a
		// complex multiply instead of Go's (much slower) robust division.
		// A subnormal pivot overflows the reciprocal — fall back to robust
		// per-element division for that column instead of spreading Inf.
		pivot := rowK[k]
		inv := 1 / pivot
		useInv := !cmplx.IsInf(inv)
		xk := x[k]
		for i := k + 1; i < n; i++ {
			rowI := d[i*n : (i+1)*n]
			var m complex128
			if useInv {
				m = rowI[k] * inv
			} else {
				m = rowI[k] / pivot
			}
			if m == 0 {
				continue
			}
			rowI[k] = 0
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
			x[i] -= m * xk
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := d[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		piv := row[i]
		if piv == 0 {
			return nil, ErrSingular
		}
		x[i] = s / piv
	}
	return x, nil
}
