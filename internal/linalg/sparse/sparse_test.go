package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// denseSolve is a tiny reference Gaussian elimination with partial pivoting,
// kept local so the package has no dependency on internal/linalg.
func denseSolve(t *testing.T, a [][]float64, b []float64) []float64 {
	t.Helper()
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64{}, a[i]...), b[i])
	}
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(m[i][k]) > math.Abs(m[p][k]) {
				p = i
			}
		}
		m[k], m[p] = m[p], m[k]
		if m[k][k] == 0 {
			t.Fatal("reference solve: singular")
		}
		for i := k + 1; i < n; i++ {
			f := m[i][k] / m[k][k]
			for j := k; j <= n; j++ {
				m[i][j] -= f * m[k][j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x
}

// buildFrom stamps a dense test matrix into a freshly analyzed sparse one.
func buildFrom(t *testing.T, a [][]float64) *BatchMatrix[float64] {
	t.Helper()
	n := len(a)
	b := NewBuilder(n)
	for i := range a {
		for j, v := range a[i] {
			if v != 0 {
				b.Add(i, j)
			}
		}
	}
	sym, err := b.Analyze()
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	m := NewMatrix[float64](sym)
	vals := m.Values()
	for i := range a {
		for j, v := range a[i] {
			if v != 0 {
				vals[sym.Index(i, j)] += v
			}
		}
	}
	return m
}

func TestSolveMatchesDense(t *testing.T) {
	a := [][]float64{
		{2, 1, 0, -1},
		{-3, 0, 2, 0},
		{0, 1, 2, 0},
		{1, 0, 0, 3},
	}
	b := []float64{8, -11, -3, 4}
	want := denseSolve(t, a, b)
	m := buildFrom(t, a)
	x := append([]float64{}, b...)
	if err := m.FactorSolve(x)[0]; err != nil {
		t.Fatalf("factor+solve: %v", err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

// An MNA-style system with a voltage-source branch row: the diagonal of the
// branch equation is structurally zero, so the solver must survive on the
// maximum transversal alone.
func TestZeroDiagonalBranchRow(t *testing.T) {
	// [g  1] [v]   [0]     (KCL at the node with the branch current)
	// [1  0] [i] = [V]     (branch equation v = V)
	g, V := 1e-3, 1.8
	a := [][]float64{{g, 1}, {1, 0}}
	m := buildFrom(t, a)
	x := []float64{0, V}
	if err := m.FactorSolve(x)[0]; err != nil {
		t.Fatalf("factor+solve: %v", err)
	}
	if math.Abs(x[0]-V) > 1e-12 || math.Abs(x[1]+g*V) > 1e-15 {
		t.Errorf("v=%v i=%v, want v=%v i=%v", x[0], x[1], V, -g*V)
	}
}

func TestStructurallySingular(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0)
	b.Add(1, 0) // column 1 is empty: no perfect matching exists
	if _, err := b.Analyze(); !errors.Is(err, ErrStructural) {
		t.Fatalf("err = %v, want ErrStructural", err)
	}
}

func TestNumericallySingular(t *testing.T) {
	m := buildFrom(t, [][]float64{{1, 1}, {1, 1}})
	if err := m.Factorize()[0]; !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	// Solve after a failed factorization must refuse rather than return
	// stale garbage.
	if err := m.Solve([]float64{1, 1})[0]; err == nil {
		t.Fatal("solve after failed factorization did not error")
	}
}

// Refactorization reuse: the same Symbolic serves many value assignments,
// and each refactor solves the new system (the Monte-Carlo perturbation
// lifecycle).
func TestRefactorizationReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 12
	// Fixed pattern: strong diagonal plus a band and a few long-range
	// couplings.
	pat := [][2]int{}
	for i := 0; i < n; i++ {
		pat = append(pat, [2]int{i, i})
		if i > 0 {
			pat = append(pat, [2]int{i, i - 1}, [2]int{i - 1, i})
		}
	}
	pat = append(pat, [2]int{0, n - 1}, [2]int{n - 1, 0}, [2]int{2, 7}, [2]int{7, 2})
	b := NewBuilder(n)
	for _, e := range pat {
		b.Add(e[0], e[1])
	}
	sym, err := b.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix[float64](sym)
	for trial := 0; trial < 25; trial++ {
		m.Zero()
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		vals := m.Values()
		for _, e := range pat {
			v := rng.NormFloat64()
			if e[0] == e[1] {
				v += float64(n) // diagonal dominance keeps the no-pivot path stable
			}
			vals[sym.Index(e[0], e[1])] += v
			dense[e[0]][e[1]] += v
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		want := denseSolve(t, dense, rhs)
		got := append([]float64{}, rhs...)
		if err := m.FactorSolve(got)[0]; err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestComplexSolve(t *testing.T) {
	a := [][]complex128{
		{complex(1, 1), 2, 0},
		{1, complex(0, -1), complex(0.5, 0)},
		{0, complex(0, 2), complex(3, -1)},
	}
	xTrue := []complex128{complex(0.5, -0.25), complex(1, 2), complex(-1, 0.5)}
	n := len(a)
	b := NewBuilder(n)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != 0 {
				b.Add(i, j)
			}
		}
	}
	sym, err := b.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix[complex128](sym)
	vals := m.Values()
	rhs := make([]complex128, n)
	for i := range a {
		for j, v := range a[i] {
			if v != 0 {
				vals[sym.Index(i, j)] += v
			}
			rhs[i] += a[i][j] * xTrue[j]
		}
	}
	if err := m.FactorSolve(rhs)[0]; err != nil {
		t.Fatal(err)
	}
	for i := range xTrue {
		d := rhs[i] - xTrue[i]
		if math.Hypot(real(d), imag(d)) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, rhs[i], xTrue[i])
		}
	}
}

// Ground (negative) indices route to the trash slot and never disturb the
// system.
func TestTrashSlot(t *testing.T) {
	a := [][]float64{{2, 0}, {0, 4}}
	m := buildFrom(t, a)
	sym := m.Symbolic()
	if got := sym.Index(-1, 0); got != sym.Trash() {
		t.Fatalf("Index(-1,0) = %d, want trash %d", got, sym.Trash())
	}
	m.Values()[sym.Index(-1, -1)] += 1e9
	x := []float64{2, 4}
	if err := m.FactorSolve(x)[0]; err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-15 || math.Abs(x[1]-1) > 1e-15 {
		t.Errorf("x = %v, want [1 1]", x)
	}
}

// The min-degree ordering must keep an arrow matrix (dense first row/col,
// diagonal elsewhere) fill-free by eliminating the hub last.
func TestMinDegreeAvoidsArrowFill(t *testing.T) {
	n := 20
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i)
		if i > 0 {
			b.Add(0, i)
			b.Add(i, 0)
		}
	}
	sym, err := b.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if sym.NNZ() != sym.Stamped() {
		t.Errorf("arrow pattern filled in: nnz %d > stamped %d", sym.NNZ(), sym.Stamped())
	}
}

// Random patterns with a random permutation as the guaranteed transversal,
// most rows without a diagonal entry, so the matching is non-trivial; the
// solve is verified through its residual directly. The bound is loose
// relative to the diagonally dominant cases above: without numerical
// pivoting, adversarial random matrices see real elimination growth (MNA
// systems put their conductance mass on the matched diagonal and are
// verified against the dense solver at 1e-9 in the circuit-level tests).
func TestResidualRandomAsymmetric(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		perm := rng.Perm(n)
		type entry struct{ r, c int }
		entries := map[entry]float64{}
		for i, p := range perm {
			entries[entry{i, p}] = 3 + float64(n) + rng.NormFloat64() // strong transversal
		}
		for k := 3 * n; k > 0; k-- {
			entries[entry{rng.Intn(n), rng.Intn(n)}] += rng.NormFloat64()
		}
		b := NewBuilder(n)
		for k := range entries {
			b.Add(k.r, k.c)
		}
		sym, err := b.Analyze()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := NewMatrix[float64](sym)
		vals := m.Values()
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		for k, v := range entries {
			vals[sym.Index(k.r, k.c)] += v
			dense[k.r][k.c] += v
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x := append([]float64{}, rhs...)
		if err := m.FactorSolve(x)[0]; err != nil {
			t.Fatalf("seed %d n=%d: %v", seed, n, err)
		}
		xinf := 0.0
		for _, v := range x {
			xinf = math.Max(xinf, math.Abs(v))
		}
		for i := 0; i < n; i++ {
			r := -rhs[i]
			for j := 0; j < n; j++ {
				r += dense[i][j] * x[j]
			}
			if math.Abs(r) > 1e-5*(1+xinf) {
				t.Fatalf("seed %d n=%d: residual[%d] = %g (|x|inf %g)", seed, n, i, r, xinf)
			}
		}
	}
}

func TestIndexOutsidePatternPanics(t *testing.T) {
	m := buildFrom(t, [][]float64{{1, 0}, {0, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("Index outside pattern did not panic")
		}
	}()
	m.Symbolic().Index(0, 1)
}
