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

func TestDet(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 10},
	})
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("factor: %v", err)
	}
	if !almostEq(f.Det(), -3, 1e-12) {
		t.Errorf("det = %v, want -3", f.Det())
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

// Property: det(PA) = ±det(A) sign accounting — det of a permuted identity is ±1.
func TestDetPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		perm := r.Perm(n)
		m := NewMatrix(n, n)
		for i, p := range perm {
			m.Set(i, p, 1)
		}
		fac, err := Factor(m)
		if err != nil {
			return false
		}
		return math.Abs(math.Abs(fac.Det())-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
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

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if NormInf(b) != 6 {
		t.Errorf("norminf = %v", NormInf(b))
	}
	d := Sub(a, b)
	if d[0] != -3 || d[1] != 7 || d[2] != -3 {
		t.Errorf("sub = %v", d)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := FromRows([][]float64{
		{4, 2, 0},
		{2, 5, 3},
		{0, 3, 6},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L·Lᵀ must recover a.
	lt := l.Transpose()
	prod := l.Mul(lt)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEq(prod.At(i, j), a.At(i, j), 1e-12) {
				t.Errorf("(L·Lᵀ)[%d][%d] = %v, want %v", i, j, prod.At(i, j), a.At(i, j))
			}
		}
	}
	// Strict upper triangle is zero.
	if l.At(0, 1) != 0 || l.At(0, 2) != 0 || l.At(1, 2) != 0 {
		t.Error("L is not lower triangular")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2},
		{2, 1}, // eigenvalues 3 and -1
	})
	if _, err := Cholesky(a); err == nil {
		t.Error("indefinite matrix accepted")
	}
	if _, err := Cholesky(FromRows([][]float64{{1, 2, 3}})); err == nil {
		t.Error("non-square accepted")
	}
}

// Property: Cholesky of I + v·vᵀ (always SPD) round-trips.
func TestCholeskyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		a := Identity(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Add(i, j, v[i]*v[j])
			}
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		prod := l.Mul(l.Transpose())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(prod.At(i, j), a.At(i, j), 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLowerMulVec(t *testing.T) {
	l := FromRows([][]float64{
		{2, 0, 0},
		{1, 3, 0},
		{4, 5, 6},
	})
	x := []float64{1, 2, 3}
	got := LowerMulVec(l, x)
	want := l.MulVec(x)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("LowerMulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// SolveInPlace must produce bit-identical solutions to Factor + Solve: the
// spice Newton loop relies on that to keep scratch reuse observationally
// invisible.
func TestSolveInPlaceMatchesSolveSystem(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(int64(rng%2000)-1000) / 250
	}
	for trial := 0; trial < 20; trial++ {
		n := 2 + trial%7
		a := NewMatrix(n, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			b[i] = next()
			for j := 0; j < n; j++ {
				a.Set(i, j, next())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominate: nonsingular
		}
		want, err := SolveSystem(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]float64(nil), b...)
		if err := SolveInPlace(a.Clone(), got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d x[%d]: in-place %.17g vs system %.17g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSolveInPlaceSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if err := SolveInPlace(a, []float64{1, 1}); err == nil {
		t.Fatal("singular system not reported")
	}
}

// CSolveInPlace must produce bit-identical solutions to CSolve on the same
// values: the AC sweep relies on the in-place variant being observationally
// invisible, exactly as the real SolveInPlace contract above.
func TestCSolveInPlaceMatchesCSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + trial%7
		a := NewCMatrix(n, n)
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			for j := 0; j < n; j++ {
				a.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
			a.Add(i, i, complex(float64(n), 0))
		}
		want, err := CSolve(a.Clone(), b)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), b...)
		if err := CSolveInPlace(a.Clone(), got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d x[%d]: in-place %v vs csolve %v", trial, i, got[i], want[i])
			}
		}
	}
}

// Shape error paths: mismatched right-hand sides and non-square inputs
// must be rejected by every entry point, not crash.
func TestSolveShapeErrors(t *testing.T) {
	sq := Identity(3)
	if err := SolveInPlace(sq.Clone(), []float64{1, 2}); err == nil {
		t.Error("short rhs accepted by SolveInPlace")
	}
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted by Factor")
	}
	if err := CSolveInPlace(NewCMatrix(2, 3), make([]complex128, 2)); err == nil {
		t.Error("non-square accepted by CSolveInPlace")
	}
	if err := CSolveInPlace(NewCMatrix(2, 2), make([]complex128, 3)); err == nil {
		t.Error("long rhs accepted by CSolveInPlace")
	}
}
