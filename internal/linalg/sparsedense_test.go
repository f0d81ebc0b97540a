package linalg_test

// Sparse-vs-dense cross-checks: the static-pattern sparse LU in
// linalg/sparse against the pivoting dense kernels in linalg, on randomized
// MNA-shaped systems (strong node diagonals, a band of couplings, and
// voltage-source-style branch rows whose diagonal is structurally zero).
// The benchmark pairs below document the crossover the spice engine's
// SolverAuto threshold is calibrated against.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/eda-go/moheco/internal/linalg"
	"github.com/eda-go/moheco/internal/linalg/sparse"
)

// mnaPattern is a synthetic MNA-shaped system: nodes node diagonals plus a
// coupling band, and branches V-source rows pairing node k with branch row
// nodes+k (zero branch diagonal).
type mnaPattern struct {
	n, nodes int
	entries  [][2]int
}

func newMNAPattern(nodes, branches, band int) *mnaPattern {
	p := &mnaPattern{n: nodes + branches, nodes: nodes}
	for i := 0; i < nodes; i++ {
		p.entries = append(p.entries, [2]int{i, i})
		for d := 1; d <= band; d++ {
			if j := i + d; j < nodes {
				p.entries = append(p.entries, [2]int{i, j}, [2]int{j, i})
			}
		}
	}
	for b := 0; b < branches; b++ {
		bi, node := nodes+b, b%nodes
		p.entries = append(p.entries, [2]int{node, bi}, [2]int{bi, node})
	}
	return p
}

// fill assigns deterministic pseudo-random values: strong node diagonals,
// ±1 branch couplings, small couplings elsewhere — the magnitude profile a
// stamped Jacobian has.
func (p *mnaPattern) fill(rng *rand.Rand, dense *linalg.Matrix, sp []float64, idx func(r, c int) int) {
	for _, e := range p.entries {
		r, c := e[0], e[1]
		var v float64
		switch {
		case r >= p.nodes || c >= p.nodes:
			v = 1 // branch coupling
		case r == c:
			v = 1e-3 + math.Abs(rng.NormFloat64()) // conductance mass
		default:
			v = 1e-4 * rng.NormFloat64()
		}
		if dense != nil {
			dense.Add(r, c, v)
		}
		if sp != nil {
			sp[idx(r, c)] += v
		}
	}
}

func (p *mnaPattern) analyze(t testing.TB) *sparse.Symbolic {
	b := sparse.NewBuilder(p.n)
	for _, e := range p.entries {
		b.Add(e[0], e[1])
	}
	sym, err := b.Analyze()
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return sym
}

// Property: on random MNA-shaped systems the sparse solve matches the
// pivoting dense solve to tight tolerance, real and complex alike.
func TestSparseMatchesDenseMNAProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 3 + rng.Intn(20)
		branches := 1 + rng.Intn(3)
		if branches > nodes {
			branches = nodes
		}
		p := newMNAPattern(nodes, branches, 1+rng.Intn(3))
		sym := p.analyze(t)
		m := sparse.NewMatrix[float64](sym)
		dense := linalg.NewMatrix(p.n, p.n)
		p.fill(rng, dense, m.Values(), sym.Index)
		rhs := make([]float64, p.n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		want, err := linalg.SolveSystem(dense, rhs)
		if err != nil {
			return false
		}
		got := append([]float64{}, rhs...)
		if err := m.FactorSolve(got)[0]; err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Logf("seed %d: x[%d] sparse %.15g dense %.15g", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSparseComplexMatchesDenseMNAProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 3 + rng.Intn(16)
		p := newMNAPattern(nodes, 1+rng.Intn(3), 1+rng.Intn(2))
		sym := p.analyze(t)
		m := sparse.NewMatrix[complex128](sym)
		dense := linalg.NewCMatrix(p.n, p.n)
		vals := m.Values()
		for _, e := range p.entries {
			r, c := e[0], e[1]
			// G + jωC profile: real conductances with reactive couplings.
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			if r == c && r < p.nodes {
				v += complex(3+float64(p.n)/4, 0)
			}
			if r >= p.nodes || c >= p.nodes {
				v = 1
			}
			dense.Add(r, c, v)
			vals[sym.Index(r, c)] += v
		}
		rhs := make([]complex128, p.n)
		for i := range rhs {
			rhs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want, err := linalg.CSolve(dense, rhs)
		if err != nil {
			return false
		}
		got := append([]complex128{}, rhs...)
		if err := m.FactorSolve(got)[0]; err != nil {
			return false
		}
		for i := range want {
			d := got[i] - want[i]
			mag := math.Hypot(real(want[i]), imag(want[i]))
			if math.Hypot(real(d), imag(d)) > 1e-9*(1+mag) {
				t.Logf("seed %d: x[%d] sparse %v dense %v", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Singular systems must error on both paths: numerically singular values on
// a healthy pattern (both solvers), and a structurally singular pattern
// (sparse analysis refuses up front, dense fails numerically).
func TestSparseDenseSingularAgreement(t *testing.T) {
	// Numerically singular: two identical rows.
	b := sparse.NewBuilder(3)
	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}} {
		b.Add(e[0], e[1])
	}
	sym, err := b.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	m := sparse.NewMatrix[float64](sym)
	dense := linalg.NewMatrix(3, 3)
	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		m.Values()[sym.Index(e[0], e[1])] = 1
		dense.Set(e[0], e[1], 1)
	}
	m.Values()[sym.Index(2, 2)] = 1
	dense.Set(2, 2, 1)
	if err := m.Factorize()[0]; err == nil {
		t.Error("sparse accepted a numerically singular system")
	}
	if _, err := linalg.SolveSystem(dense, []float64{1, 1, 1}); err == nil {
		t.Error("dense accepted a numerically singular system")
	}

	// Complex numeric singularity through the same pattern.
	cm := sparse.NewMatrix[complex128](sym)
	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}} {
		cm.Values()[sym.Index(e[0], e[1])] = complex(2, 1)
	}
	if err := cm.Factorize()[0]; err == nil {
		t.Error("sparse accepted a numerically singular complex system")
	}

	// Structurally singular: an empty column has no matching.
	b2 := sparse.NewBuilder(2)
	b2.Add(0, 0)
	b2.Add(1, 0)
	if _, err := b2.Analyze(); err == nil {
		t.Error("structurally singular pattern analyzed without error")
	}
}

// --- Benchmark pairs at representative MNA sizes ---
//
// Per-solve cost including assembly (copy of stamped values), the unit of
// work one Newton iteration or one AC frequency point pays. Run with
//
//	go test ./internal/linalg -bench 'MNASolve' -run xxx

func benchPattern(n int) *mnaPattern {
	nodes := n * 3 / 4
	return newMNAPattern(nodes, n-nodes, 2)
}

func BenchmarkMNASolveDense(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(benchName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := benchPattern(n)
			tmpl := linalg.NewMatrix(p.n, p.n)
			p.fill(rng, tmpl, nil, nil)
			rhs := make([]float64, p.n)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			scratch := linalg.NewMatrix(p.n, p.n)
			x := make([]float64, p.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch.Data, tmpl.Data)
				copy(x, rhs)
				if err := linalg.SolveInPlace(scratch, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMNASolveSparse(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(benchName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := benchPattern(n)
			sym := p.analyze(b)
			m := sparse.NewMatrix[float64](sym)
			tmpl := make([]float64, len(m.Values()))
			p.fill(rng, nil, tmpl, sym.Index)
			rhs := make([]float64, p.n)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			x := make([]float64, p.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(m.Values(), tmpl)
				copy(x, rhs)
				if err := m.FactorSolve(x)[0]; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMNASolveDenseComplex(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(benchName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := benchPattern(n)
			rtmpl := linalg.NewMatrix(p.n, p.n)
			p.fill(rng, rtmpl, nil, nil)
			tmpl := linalg.NewCMatrix(p.n, p.n)
			for i, v := range rtmpl.Data {
				tmpl.Data[i] = complex(v, v/3)
			}
			rhs := make([]complex128, p.n)
			for i := range rhs {
				rhs[i] = complex(rng.NormFloat64(), 0)
			}
			scratch := linalg.NewCMatrix(p.n, p.n)
			x := make([]complex128, p.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch.Data, tmpl.Data)
				copy(x, rhs)
				if err := linalg.CSolveInPlace(scratch, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMNASolveSparseComplex(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(benchName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := benchPattern(n)
			sym := p.analyze(b)
			m := sparse.NewMatrix[complex128](sym)
			rtmpl := make([]float64, len(m.Values()))
			p.fill(rng, nil, rtmpl, sym.Index)
			tmpl := make([]complex128, len(rtmpl))
			for i, v := range rtmpl {
				tmpl[i] = complex(v, v/3)
			}
			rhs := make([]complex128, p.n)
			for i := range rhs {
				rhs[i] = complex(rng.NormFloat64(), 0)
			}
			x := make([]complex128, p.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(m.Values(), tmpl)
				copy(x, rhs)
				if err := m.FactorSolve(x)[0]; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(n int) string {
	return fmt.Sprintf("n=%d", n)
}
