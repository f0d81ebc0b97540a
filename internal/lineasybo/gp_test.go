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

// kernel is the SE covariance of inputs a and b, one exp per call: the
// original form of the kernel entries.
func (g *gp) kernel(a, b float64) float64 {
	return g.sf2 * g.expTerm(a, b)
}

// kernelOracle is the kernel matrix K + σn²I with one kernel call per
// entry, the original form of the fit's matrix.
func (g *gp) kernelOracle() [][]float64 {
	k := make([][]float64, len(g.xs))
	for i := range k {
		k[i] = make([]float64, i+1)
		for j := range k[i] {
			k[i][j] = g.kernel(g.xs[i], g.xs[j])
		}
		k[i][i] += gpNoise
	}
	return k
}

// predictOracle is the one-point prediction with one kernel call per
// training point, the original form of predictBatch.
func (g *gp) predictOracle(x float64) (mu, sigma2 float64) {
	kx := make([]float64, len(g.xs))
	for i, xi := range g.xs {
		kx[i] = g.kernel(x, xi)
	}
	mu = g.mean
	for i, a := range g.alpha {
		mu += kx[i] * a
	}
	v := make([]float64, len(kx))
	forwardSolve(g.chol, kx, v)
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
// with random targets. With distinct > 0 the inputs are drawn from that
// many values, grid points among them, the way line-search archives repeat
// coordinates; otherwise one input in five repeats an earlier one.
func randomGP(t testing.TB, rng *rand.Rand, n, distinct int) *gp {
	vals := make([]float64, distinct)
	for i := range vals {
		vals[i] = rng.Float64()
		if i%2 == 0 {
			vals[i] = lineGrid[rng.Intn(gridPoints)]
		}
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		switch {
		case distinct > 0:
			xs[i] = vals[rng.Intn(distinct)]
		case i > 0 && rng.Intn(5) == 0:
			xs[i] = xs[rng.Intn(i)]
		default:
			xs[i] = rng.Float64()
		}
		ys[i] = rng.Float64()
	}
	g := new(gp)
	if err := g.fit(xs, ys, lengthscale); err != nil {
		t.Fatalf("fit on %d points: %v", n, err)
	}
	return g
}

// withSolvePaths runs f on the Go forward solve and, where the CPU has
// AVX2, on the assembly one.
func withSolvePaths(t *testing.T, f func(t *testing.T)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	paths := []bool{false}
	if saved {
		paths = append(paths, true)
	}
	for _, on := range paths {
		useAVX2 = on
		t.Run(fmt.Sprintf("avx2=%v", on), f)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameFactor fails unless got and want hold the same factor bit for bit.
func sameFactor(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if !sameBits(got[i][j], want[i][j]) {
				t.Fatalf("%s: L[%d][%d] = %v, oracle %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestCholeskyMatchesOracle pins the four-entry factor to the one-entry
// factor bit for bit on GP kernel matrices of every training size up to
// maxTrain and beyond, in a separate factor and in place, and on a matrix
// that is not positive definite. It also pins the fit's factor, whose
// matrix takes one exp per distinct pair, to the factor of the
// one-kernel-call-per-entry matrix, including at the line search's shape:
// 80 inputs over about 25 distinct values.
func TestCholeskyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for rep := 0; rep < 300; rep++ {
		n, distinct := 1+rng.Intn(maxTrain+7), 0
		if rep%3 == 0 {
			n, distinct = maxTrain, 20+rng.Intn(11)
		}
		g := randomGP(t, rng, n, distinct)
		k := g.kernelOracle()
		want, werr := choleskyOracle(k)
		if werr != nil {
			t.Fatalf("n=%d: oracle %v", n, werr)
		}
		what := fmt.Sprintf("n=%d distinct=%d", n, len(g.uniq))
		sameFactor(t, what+" fit", g.chol, want)
		got := make([][]float64, n)
		for i := range got {
			got[i] = make([]float64, i+1)
		}
		if err := cholesky(got, k); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sameFactor(t, what, got, want)
		if err := cholesky(k, k); err != nil {
			t.Fatalf("%s in place: %v", what, err)
		}
		sameFactor(t, what+" in place", k, want)
	}
	bad := [][]float64{{1}, {0.5, 1}, {0.2, 0.3, 1}, {0.1, 0.2, 0.3, 1}, {0.1, 0.1, 0.1, 0.1, 1}, {2, 2, 2, 2, 2, 1}}
	_, werr := choleskyOracle(bad)
	err := cholesky(bad, bad)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Fatalf("indefinite matrix: error %v, oracle %v", err, werr)
	}
}

// checkPredict fails unless predictBatch at xs matches the one-point
// oracle bit for bit. NaN results compare as NaN: a NaN point's payload is
// not part of the contract.
func checkPredict(t testing.TB, g *gp, xs []float64) {
	t.Helper()
	mu, s2 := make([]float64, len(xs)), make([]float64, len(xs))
	g.predictBatch(xs, mu, s2)
	same := func(a, b float64) bool { return sameBits(a, b) || math.IsNaN(a) && math.IsNaN(b) }
	for i, x := range xs {
		wm, ws := g.predictOracle(x)
		if !same(mu[i], wm) || !same(s2[i], ws) {
			t.Fatalf("avx2=%v: point %d of %d (%v): (%v, %v), oracle (%v, %v)", useAVX2, i, len(xs), x, mu[i], s2[i], wm, ws)
		}
	}
}

// TestPredictBatchMatchesOracle pins the four-point prediction to the
// one-point prediction bit for bit on both forward-solve paths, for every
// grid length 1–9 and the line search's 33-point grid, including at the
// line search's shape (80 inputs over about 25 distinct values, grid points
// among them) and at points equal to training inputs.
func TestPredictBatchMatchesOracle(t *testing.T) {
	withSolvePaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for rep := 0; rep < 150; rep++ {
			n, distinct := 1+rng.Intn(maxTrain), 0
			if rep%3 == 0 {
				n, distinct = maxTrain, 20+rng.Intn(11)
			}
			g := randomGP(t, rng, n, distinct)
			xs := lineGrid[:]
			if rep%2 == 0 {
				xs = make([]float64, 1+rep%9)
				for i := range xs {
					xs[i] = rng.Float64()
					if i%2 == 1 {
						xs[i] = g.xs[rng.Intn(len(g.xs))]
					}
				}
			}
			checkPredict(t, g, xs)
		}
	})
}

// FuzzGPPredict checks predictBatch against the one-point oracle on both
// forward-solve paths, for a GP fitted on n inputs over a few distinct
// values and predicted at the line grid plus an arbitrary point.
func FuzzGPPredict(f *testing.F) {
	f.Add(int64(1), uint8(80), uint8(25), 0.5)
	f.Add(int64(2), uint8(1), uint8(1), 0.0)
	f.Add(int64(3), uint8(7), uint8(0), 1.0)
	f.Add(int64(4), uint8(80), uint8(3), -3.25)
	f.Add(int64(5), uint8(33), uint8(33), math.Inf(1))
	f.Add(int64(6), uint8(64), uint8(12), math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, n, distinct uint8, point float64) {
		if n == 0 || int(n) > maxTrain+7 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		g := randomGP(t, rng, int(n), int(distinct)%(int(n)+1))
		xs := append(lineGrid[:], point, g.xs[0])
		saved := useAVX2
		defer func() { useAVX2 = saved }()
		for _, on := range []bool{false, saved} {
			useAVX2 = on
			checkPredict(t, g, xs)
		}
	})
}

// workloadArchive builds an archive the way a run grows one: a quarter of
// random designs (the warm-up and the feasibility phase's DE trials), then
// line-search proposals, each moving one random axis of the incumbent to a
// grid point, one in four becoming the new incumbent. So an axis sees a few
// dozen distinct coordinates over the training window, as in a run, not one
// per member.
func workloadArchive(rng *rand.Rand, sc *core.SearchContext, dim int) []*core.Member {
	random := func() []float64 {
		x := make([]float64, dim)
		for d := range x {
			x[d] = sc.Lo[d] + rng.Float64()*(sc.Hi[d]-sc.Lo[d])
		}
		return x
	}
	cur := random()
	archive := make([]*core.Member, maxTrain)
	for i := range archive {
		var x []float64
		if i < maxTrain/4 {
			x = random()
		} else {
			x = append([]float64(nil), cur...)
			axis := rng.Intn(dim)
			x[axis] = sc.Lo[axis] + (sc.Hi[axis]-sc.Lo[axis])*lineGrid[rng.Intn(gridPoints)]
			if rng.Intn(4) == 0 {
				cur = x
			}
		}
		archive[i] = &core.Member{X: x, Fit: constraint.Fitness{Feasible: rng.Intn(4) != 0, Yield: rng.Float64(), Violation: rng.Float64()}}
	}
	return archive
}

// benchLine is the benchmarked line search: a telescopic-sized design and
// an archive of workload shape.
func benchLine() (*core.SearchContext, []*core.Member, int) {
	const dim = 12
	rng := rand.New(rand.NewSource(3))
	sc := &core.SearchContext{Lo: make([]float64, dim), Hi: make([]float64, dim)}
	for d := range sc.Hi {
		sc.Hi[d] = 1 + float64(d)
	}
	return sc, workloadArchive(rng, sc, dim), dim
}

// TestProposeOnLineAllocs pins the reused workspace: once it has served a
// full training window, a proposal allocates only the design it returns.
func TestProposeOnLineAllocs(t *testing.T) {
	sc, archive, dim := benchLine()
	var w lineSearch
	for axis := 0; axis < dim; axis++ {
		w.proposeOnLine(sc, archive, 0, axis)
	}
	axis := 0
	got := testing.AllocsPerRun(50, func() {
		w.proposeOnLine(sc, archive, 0, axis)
		axis = (axis + 1) % dim
	})
	if got != 1 {
		t.Fatalf("proposeOnLine on a warm workspace: %v allocations, want 1 (the design)", got)
	}
}

// proposalSink keeps the benchmarked proposals live.
var proposalSink []float64

// BenchmarkProposeOnLine times one line-search proposal (GP fit on the
// full training window plus the grid sweep) at a telescopic-sized design,
// on an archive of workload shape; distinct/fit reports how many distinct
// coordinates a fit sees on average.
func BenchmarkProposeOnLine(b *testing.B) {
	sc, archive, dim := benchLine()
	var w lineSearch
	uniq := 0
	for i := 0; i < b.N; i++ {
		proposalSink = w.proposeOnLine(sc, archive, 0, i%dim)
		uniq += len(w.g.uniq)
	}
	b.ReportMetric(float64(uniq)/float64(b.N), "distinct/fit")
}
