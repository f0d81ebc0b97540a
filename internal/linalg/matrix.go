// Package linalg provides small dense linear-algebra primitives used by the
// MNA circuit engine (real and complex systems) and the Levenberg–Marquardt
// neural-network trainer. It is deliberately minimal: row-major dense
// matrices, LU factorization with partial pivoting, and a few vector helpers.
package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major real matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixTrailing returns a rows×cols matrix whose Data slice carries
// extra trailing scratch elements beyond Rows·Cols. The linear-algebra
// kernels address only Rows·Cols; the trailing slots let callers map
// write-off indices (the MNA ground-stamp convention of internal/spice)
// into the same array without bounds branches. Note Zero walks the full
// Data slice, while Clone returns a plain Rows·Cols matrix (the trailing
// scratch is not copied) — trailing matrices are scratch buffers, not
// values to pass around.
func NewMatrixTrailing(rows, cols, extra int) *Matrix {
	if rows < 0 || cols < 0 || extra < 0 {
		panic(fmt.Sprintf("linalg: invalid trailing shape %dx%d+%d", rows, cols, extra))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols+extra)}
}

// FromRows builds a matrix from row slices; all rows must share one length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j); the usual MNA "stamp" operation.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements to zero, keeping the allocation.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Mul returns m × b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			row := b.Data[k*b.Cols : (k+1)*b.Cols]
			dst := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, v := range row {
				dst[j] += a * v
			}
		}
	}
	return out
}

// MulVec returns m × x as a new vector.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic("linalg: mulvec shape mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% .6g\t", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
