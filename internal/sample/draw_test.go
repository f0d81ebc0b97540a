package sample

import (
	"fmt"
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/randx"
)

// lhsPermDraw is LHS.Draw with a fresh rng.Perm(n) per coordinate, the
// original form of the plan: the oracle for the reused permutation buffer.
func lhsPermDraw(rng *randx.Stream, n, dim int) [][]float64 {
	out := NewPlan(n, dim)
	if n == 0 {
		return out
	}
	for j := 0; j < dim; j++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			u := (float64(perm[i]) + rng.Float64()) / float64(n)
			if u <= 0 {
				u = 0.5 / float64(n)
			}
			if u >= 1 {
				u = 1 - 0.5/float64(n)
			}
			out[i][j] = randx.NormQuantile(u)
		}
	}
	return out
}

// scalarQuantiles is randx.NormQuantiles' portable path: the scalar
// quantile, value by value.
func scalarQuantiles(p []float64) {
	for i, v := range p {
		p[i] = randx.NormQuantile(v)
	}
}

// withQuantilePaths runs f with the plan's quantile pass on the scalar loop
// and on randx.NormQuantiles (its AVX2 kernel where the CPU has one).
func withQuantilePaths(t *testing.T, f func(t *testing.T)) {
	saved := quantiles
	defer func() { quantiles = saved }()
	for _, path := range []struct {
		name string
		q    func([]float64)
	}{{"scalar", scalarQuantiles}, {"batched", randx.NormQuantiles}} {
		quantiles = path.q
		t.Run(path.name, f)
	}
}

// samePlans fails unless got and want hold the same points bit for bit.
func samePlans(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d coordinates, oracle %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: point [%d][%d] = %v, oracle %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestLHSMatchesPermOracle pins the buffered, division-free permutation and
// the batched quantile pass to rand.Perm's stream and the per-coordinate
// quantile: same points bit for bit, and the stream left at the same state.
// The sizes cover n = 0–9, powers of two (Int31n's mask branch) and dim 0.
func TestLHSMatchesPermOracle(t *testing.T) {
	type tc struct {
		n, dim int
		seed   uint64
	}
	cases := []tc{{0, 4, 1}, {1, 1, 2}, {2, 3, 3}, {17, 5, 4}, {64, 80, 5}, {300, 123, 6}, {2048, 7, 7},
		{5, 0, 8}, {0, 0, 9}, {16, 3, 10}, {128, 9, 11}, {1024, 2, 12}}
	for n := 1; n <= 9; n++ {
		cases = append(cases, tc{n, 5, uint64(20 + n)})
	}
	withQuantilePaths(t, func(t *testing.T) {
		for _, c := range cases {
			ra, rb := randx.New(c.seed), randx.New(c.seed)
			got := LHS{}.Draw(ra, c.n, c.dim)
			want := lhsPermDraw(rb, c.n, c.dim)
			samePlans(t, fmt.Sprintf("n=%d dim=%d seed=%d", c.n, c.dim, c.seed), got, want)
			if a, b := ra.Uint64(), rb.Uint64(); a != b {
				t.Errorf("n=%d dim=%d seed=%d: stream diverged after the draw", c.n, c.dim, c.seed)
			}
		}
	})
}

// haltonScalarDraw is Halton.Draw with the quantile taken coordinate by
// coordinate, the original form of the plan.
func haltonScalarDraw(rng *randx.Stream, n, dim int) [][]float64 {
	out := NewPlan(n, dim)
	if n == 0 || dim == 0 {
		return out
	}
	primes := firstPrimes(dim)
	start := rng.Intn(1 << 16)
	for d := 0; d < dim; d++ {
		shift := rng.Float64()
		for i := 0; i < n; i++ {
			u := radicalInverse(start+i+1, primes[d]) + shift
			if u >= 1 {
				u -= 1
			}
			if u < 1e-12 {
				u = 1e-12
			}
			if u > 1-1e-12 {
				u = 1 - 1e-12
			}
			out[i][d] = randx.NormQuantile(u)
		}
	}
	return out
}

// TestHaltonMatchesScalarOracle pins the batched quantile pass of the
// Halton plan to the per-coordinate quantile.
func TestHaltonMatchesScalarOracle(t *testing.T) {
	withQuantilePaths(t, func(t *testing.T) {
		for _, c := range []struct {
			n, dim int
			seed   uint64
		}{{0, 3, 1}, {3, 0, 2}, {1, 1, 3}, {7, 5, 4}, {64, 80, 5}, {257, 123, 6}} {
			ra, rb := randx.New(c.seed), randx.New(c.seed)
			samePlans(t, fmt.Sprintf("n=%d dim=%d seed=%d", c.n, c.dim, c.seed),
				Halton{}.Draw(ra, c.n, c.dim), haltonScalarDraw(rb, c.n, c.dim))
			if a, b := ra.Uint64(), rb.Uint64(); a != b {
				t.Errorf("n=%d dim=%d seed=%d: stream diverged after the draw", c.n, c.dim, c.seed)
			}
		}
	})
}

// TestPermStepsMatchIntn pins each precomputed reduction to rng.Intn(m):
// the same value and the same stream consumption, for every m up to 5000
// and for m near 2³¹, where Int31n rejects most often.
func TestPermStepsMatchIntn(t *testing.T) {
	ms := []uint32{3 << 29, 1<<31 - 1, 1<<30 + 1, 1 << 30}
	for m := uint32(1); m <= 5000; m++ {
		ms = append(ms, m)
	}
	ra, rb := randx.New(3), randx.New(3)
	for _, m := range ms {
		st := newPermStep(m)
		for k := 0; k < 4; k++ {
			if got, want := st.intn(ra, m), rb.Intn(int(m)); int(got) != want {
				t.Fatalf("Intn(%d) = %d, oracle %d", m, got, want)
			}
		}
	}
	if a, b := ra.Uint64(), rb.Uint64(); a != b {
		t.Error("stream diverged")
	}
}

// TestLHSDrawAllocsIndependentOfDim pins the per-draw allocation budget:
// the plan's row index, its backing array and one permutation buffer, for
// any dimension.
func TestLHSDrawAllocsIndependentOfDim(t *testing.T) {
	const lhsDrawAllocs = 3
	rng := randx.New(1)
	for _, dim := range []int{5, 123} {
		got := testing.AllocsPerRun(20, func() { LHS{}.Draw(rng, 64, dim) })
		if got != lhsDrawAllocs {
			t.Errorf("LHS.Draw(64, %d): %v allocs, want %d", dim, got, lhsDrawAllocs)
		}
	}
}

// TestPMCFillStreamsDraw pins the property streamed plans rely on: filling
// one buffer block by block reproduces the rows of a single Draw.
func TestPMCFillStreamsDraw(t *testing.T) {
	const n, dim, block = 50, 9, 16
	want := PMC{}.Draw(randx.New(3), n, dim)
	rng := randx.New(3)
	buf := NewPlan(block, dim)
	for lo := 0; lo < n; lo += len(buf) {
		buf = buf[:min(len(buf), n-lo)]
		PMC{}.Fill(rng, buf)
		for i, row := range buf {
			for j, v := range row {
				if v != want[lo+i][j] {
					t.Fatalf("row %d coord %d: streamed %v, drawn %v", lo+i, j, v, want[lo+i][j])
				}
			}
		}
	}
}

// planSink keeps the benchmarked draws live.
var planSink [][]float64

// BenchmarkLHSDraw times one plan at the perfbench ladder's shape (15 rows
// of the folded cascode's 80 variation dimensions) and at a telescopic
// stage-2 shape (64 × 123), per coordinate.
func BenchmarkLHSDraw(b *testing.B) {
	for _, sz := range []struct{ n, dim int }{{15, 80}, {64, 123}} {
		b.Run(fmt.Sprintf("%dx%d", sz.n, sz.dim), func(b *testing.B) {
			rng := randx.New(1)
			for i := 0; i < b.N; i++ {
				planSink = LHS{}.Draw(rng, sz.n, sz.dim)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sz.n*sz.dim), "ns/coord")
		})
	}
}
