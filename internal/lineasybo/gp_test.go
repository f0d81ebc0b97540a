package lineasybo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/core"
)

// choleskyOracle is the one-entry-at-a-time factor, the original form of
// cholesky.
func choleskyOracle(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, i+1)
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("lineasybo: kernel matrix not positive definite at row %d", i)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// predictOracle is the one-point prediction, the original form of
// predictBatch.
func (g *gp) predictOracle(x []float64) (mu, sigma2 float64) {
	kx := make([]float64, len(g.xs))
	for i, xi := range g.xs {
		kx[i] = g.kernel(x, xi)
	}
	mu = g.mean
	for i, a := range g.alpha {
		mu += kx[i] * a
	}
	v := forwardSolve(g.chol, kx)
	sigma2 = g.sf2 + gpNoise
	for _, vi := range v {
		sigma2 -= vi * vi
	}
	if sigma2 < 0 {
		sigma2 = 0
	}
	return mu, sigma2
}

// randomGP fits the surrogate on n random one-dimensional points in [0,1]
// (some duplicated, as line-search archives are) with random targets.
func randomGP(t testing.TB, rng *rand.Rand, n int) *gp {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		if i > 0 && rng.Intn(5) == 0 {
			xs[i] = xs[rng.Intn(i)]
		} else {
			xs[i] = []float64{rng.Float64()}
		}
		ys[i] = rng.Float64()
	}
	g, err := fitGP(xs, ys, lengthscale)
	if err != nil {
		t.Fatalf("fit on %d points: %v", n, err)
	}
	return g
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCholeskyMatchesOracle pins the four-entry factor to the one-entry
// factor bit for bit on GP kernel matrices of every training size up to
// maxTrain and beyond, and on a matrix that is not positive definite.
func TestCholeskyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for rep := 0; rep < 300; rep++ {
		n := 1 + rng.Intn(maxTrain+7)
		g := randomGP(t, rng, n)
		k := make([][]float64, n)
		for i := range k {
			k[i] = make([]float64, i+1)
			for j := range k[i] {
				k[i][j] = g.kernel(g.xs[i], g.xs[j])
			}
			k[i][i] += gpNoise
		}
		got, err := cholesky(k)
		want, werr := choleskyOracle(k)
		if err != nil || werr != nil {
			t.Fatalf("n=%d: errors %v, oracle %v", n, err, werr)
		}
		for i := range want {
			for j := range want[i] {
				if !sameBits(got[i][j], want[i][j]) {
					t.Fatalf("n=%d: L[%d][%d] = %v, oracle %v", n, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	bad := [][]float64{{1}, {0.5, 1}, {0.2, 0.3, 1}, {0.1, 0.2, 0.3, 1}, {0.1, 0.1, 0.1, 0.1, 1}, {2, 2, 2, 2, 2, 1}}
	_, err := cholesky(bad)
	_, werr := choleskyOracle(bad)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Fatalf("indefinite matrix: error %v, oracle %v", err, werr)
	}
}

// TestPredictBatchMatchesOracle pins the four-point prediction to the
// one-point prediction bit for bit, for every grid length 1–9 and the
// line search's 33-point grid.
func TestPredictBatchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for rep := 0; rep < 100; rep++ {
		g := randomGP(t, rng, 1+rng.Intn(maxTrain))
		np := gridPoints
		if rep%2 == 0 {
			np = 1 + rep%9
		}
		xs := make([][]float64, np)
		for i := range xs {
			xs[i] = []float64{rng.Float64()}
		}
		mu, s2 := make([]float64, np), make([]float64, np)
		g.predictBatch(xs, mu, s2)
		for i, x := range xs {
			wm, ws := g.predictOracle(x)
			if !sameBits(mu[i], wm) || !sameBits(s2[i], ws) {
				t.Fatalf("point %d of %d: (%v, %v), oracle (%v, %v)", i, np, mu[i], s2[i], wm, ws)
			}
		}
	}
}

// proposalSink keeps the benchmarked proposals live.
var proposalSink []float64

// BenchmarkProposeOnLine times one line-search proposal (GP fit on the
// full training window plus the grid sweep) at a telescopic-sized design.
func BenchmarkProposeOnLine(b *testing.B) {
	const dim = 12
	rng := rand.New(rand.NewSource(3))
	sc := &core.SearchContext{Lo: make([]float64, dim), Hi: make([]float64, dim)}
	for d := range sc.Hi {
		sc.Hi[d] = 1 + float64(d)
	}
	archive := make([]*core.Member, maxTrain)
	for i := range archive {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64() * sc.Hi[d]
		}
		archive[i] = &core.Member{X: x, Fit: constraint.Fitness{Feasible: rng.Intn(4) != 0, Yield: rng.Float64(), Violation: rng.Float64()}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proposalSink = proposeOnLine(sc, archive, 0, i%dim)
	}
}
