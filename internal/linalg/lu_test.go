package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveSystem(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := SolveSystem(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error, got nil")
	}
}

func TestFactorDoesNotModifyInput(t *testing.T) {
	a := FromRows([][]float64{{4, 3}, {6, 3}})
	before := a.Clone()
	if _, err := Factor(a); err != nil {
		t.Fatalf("factor: %v", err)
	}
	for i := range a.Data {
		if a.Data[i] != before.Data[i] {
			t.Fatalf("input modified at %d", i)
		}
	}
}

func TestIdentitySolve(t *testing.T) {
	n := 7
	id := Identity(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i) - 2.5
	}
	x, err := SolveSystem(id, b)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	for i := range b {
		if x[i] != b[i] {
			t.Errorf("x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
}

// Property: for random well-conditioned A and x, Solve(A, A·x) recovers x.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance keeps it well conditioned
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := SolveSystem(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(got[i], x[i], 1e-8) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCSolveKnown(t *testing.T) {
	// (1+j)x + 2y = 3+j ; x - jy = 1  → pick x=1, y=1+... verify via multiply.
	a := NewCMatrix(2, 2)
	a.Set(0, 0, complex(1, 1))
	a.Set(0, 1, 2)
	a.Set(1, 0, 1)
	a.Set(1, 1, complex(0, -1))
	xTrue := []complex128{complex(0.5, -0.25), complex(1, 2)}
	b := make([]complex128, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			b[i] += a.At(i, j) * xTrue[j]
		}
	}
	got, err := CSolve(a.Clone(), b)
	if err != nil {
		t.Fatalf("csolve: %v", err)
	}
	for i := range xTrue {
		if d := got[i] - xTrue[i]; math.Hypot(real(d), imag(d)) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, got[i], xTrue[i])
		}
	}
}

func TestCSolveSingular(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := CSolve(a, []complex128{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestMatrixOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	p := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if p.At(i, j) != want[i][j] {
				t.Errorf("mul[%d][%d] = %v, want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
	tr := a.Transpose()
	if tr.At(0, 1) != 3 || tr.At(1, 0) != 2 {
		t.Errorf("transpose wrong: %v", tr)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := SolveSystem(Identity(3), []float64{1, 2}); err == nil {
		t.Error("short rhs accepted by SolveSystem")
	}
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted by Factor")
	}
	if _, err := CSolve(NewCMatrix(2, 3), make([]complex128, 2)); err == nil {
		t.Error("non-square accepted by CSolve")
	}
	if _, err := CSolve(NewCMatrix(2, 2), make([]complex128, 3)); err == nil {
		t.Error("long rhs accepted by CSolve")
	}
}
