package lineasybo

import (
	"fmt"
	"math"
)

// gp is a tiny fixed-hyperparameter Gaussian process on one coordinate,
// the surrogate of the one-dimensional-subspace acquisition search. Inputs
// are axis coordinates normalized to [0, 1]; the kernel is squared-
// exponential, the signal variance is set from the sample variance of the
// targets, and the noise floor absorbs the Monte-Carlo estimator's own
// variance. Everything is closed-form float math over slices in a fixed
// order, so a fit is bit-deterministic for a given training set.
//
// A gp is also its own workspace: fit and predictBatch reuse its buffers,
// so a line search that keeps one gp allocates nothing round after round
// once the buffers have grown to the training window.
//
// Line-search archives repeat coordinates: proposals land on the grid and
// the other axes' proposals keep the incumbent's coordinate. The kernel
// sf2·exp(−0.5·(a − b)²/ℓ²) depends on a pair of inputs only through
// (a − b)², and a − b = −(b − a) exactly in IEEE arithmetic, so fit
// evaluates exp once per pair of distinct inputs and predictBatch once per
// (point, distinct input), then scales by sf2: every entry keeps the bits
// of one kernel evaluation per pair.
type gp struct {
	xs    []float64 // training inputs
	alpha []float64 // (K + σn²I)⁻¹ (y − mean)
	chol  [][]float64
	mean  float64
	ls2   float64 // lengthscale²
	sf2   float64 // signal variance

	uniq  []float64 // the distinct training inputs, in first-seen order
	idx   []int     // idx[i]: the entry of xs[i] in uniq
	ex    []float64 // exp terms: per distinct pair (fit), per distinct input and lane (predictBatch)
	flat  []float64 // backing array of chol, row after row
	resid []float64
	v     []float64 // forward-solve scratch of cholSolve
	kx    [][4]float64
	vs    [][4]float64
}

// gpNoise is the observation-noise floor. Stage-1 yield estimates carry
// binomial noise of up to ~(0.5)²/n0; this keeps the Cholesky well
// conditioned without drowning the signal.
const gpNoise = 5e-3

// fit fits the surrogate on normalized inputs xs and targets ys. The gp
// keeps xs until the next fit.
func (g *gp) fit(xs, ys []float64, lengthscale float64) error {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return fmt.Errorf("lineasybo: GP fit on %d inputs, %d targets", n, len(ys))
	}
	g.xs, g.ls2 = xs, lengthscale*lengthscale
	g.mean = 0
	for _, y := range ys {
		g.mean += y
	}
	g.mean /= float64(n)
	g.sf2 = 0
	for _, y := range ys {
		d := y - g.mean
		g.sf2 += d * d
	}
	g.sf2 /= float64(n)
	if g.sf2 < 1e-6 {
		g.sf2 = 1e-6
	}

	g.idx = resize(g.idx, n)
	g.uniq = g.uniq[:0]
	for i, x := range xs {
		q := 0
		for q < len(g.uniq) && g.uniq[q] != x {
			q++
		}
		if q == len(g.uniq) {
			g.uniq = append(g.uniq, x)
		}
		g.idx[i] = q
	}
	// ex holds the lower triangle of the distinct pairs, row p at p(p+1)/2.
	m := len(g.uniq)
	g.ex = resize(g.ex, m*(m+1)/2)
	for p, e := 0, 0; p < m; p++ {
		for q := 0; q <= p; q++ {
			g.ex[e] = g.expTerm(g.uniq[p], g.uniq[q])
			e++
		}
	}

	// The kernel matrix goes into the factor's rows, which cholesky then
	// overwrites with L.
	g.flat = resize(g.flat, n*(n+1)/2)
	g.chol = resize(g.chol, n)
	for i := range g.chol {
		row := g.flat[i*(i+1)/2 : (i+1)*(i+2)/2]
		g.chol[i] = row
		p := g.idx[i]
		for j := range row {
			p, q := p, g.idx[j]
			if p < q {
				p, q = q, p
			}
			row[j] = g.sf2 * g.ex[p*(p+1)/2+q]
		}
		row[i] += gpNoise
	}
	if err := cholesky(g.chol, g.chol); err != nil {
		return err
	}
	g.resid = resize(g.resid, n)
	for i, y := range ys {
		g.resid[i] = y - g.mean
	}
	g.v = resize(g.v, n)
	g.alpha = resize(g.alpha, n)
	cholSolve(g.chol, g.resid, g.v, g.alpha)
	return nil
}

// expTerm is the exponential factor of the SE kernel, sf2·expTerm(a, b).
func (g *gp) expTerm(a, b float64) float64 {
	d := a - b
	return math.Exp(-0.5 * (d * d) / g.ls2)
}

// predictBatch writes the posterior mean and variance at each normalized
// point xs[p] into mu[p] and sigma2[p]. Points go four at a time through one
// forward solve with four right-hand sides, so each pass over a row of L
// serves four points; every point keeps the exact operation sequence of a
// one-point prediction, so the four lanes of a pass are independent.
func (g *gp) predictBatch(xs []float64, mu, sigma2 []float64) {
	const w = 4
	n, m := len(g.xs), len(g.uniq)
	g.kx = resize(g.kx, n) // kx[i][l]: k(point l, training point i)
	g.vs = resize(g.vs, n)
	g.ex = resize(g.ex, m*w)
	kx, v, ex := g.kx, g.vs, g.ex
	for p := 0; p < len(xs); p += w {
		// A short last group repeats its last point in the spare lanes.
		pts := xs[p:min(p+w, len(xs))]
		for q, u := range g.uniq {
			e := ex[q*w : q*w+w]
			for l := range e {
				if l < len(pts) {
					e[l] = g.expTerm(pts[l], u)
				} else {
					e[l] = e[l-1]
				}
			}
		}
		for i, q := range g.idx {
			e := ex[q*w : q*w+w]
			kx[i] = [w]float64{g.sf2 * e[0], g.sf2 * e[1], g.sf2 * e[2], g.sf2 * e[3]}
		}
		// σ² = k(x,x) − kxᵀ (K + σn²I)⁻¹ kx, via the triangular solve
		// L·v = kx for the four columns at once.
		forwardSolve4(g.chol, g.flat, kx, v)
		for l := range pts {
			u := g.mean
			for i, a := range g.alpha {
				u += kx[i][l] * a
			}
			s2 := g.sf2 + gpNoise
			for i := range v {
				s2 -= v[i][l] * v[i][l]
			}
			if s2 < 0 {
				s2 = 0
			}
			mu[p+l], sigma2[p+l] = u, s2
		}
	}
}

// forwardSolve4 solves L·v = b for four right-hand sides, lane by lane in
// forwardSolve's operation order. flat is the backing array of L's rows,
// row i at i(i+1)/2, which the AVX2 form reads (forward_amd64.go).
func forwardSolve4(l [][]float64, flat []float64, b, v [][4]float64) {
	if forwardSolve4SIMD(flat, b, v) {
		return
	}
	for i, li := range l {
		s0, s1, s2, s3 := b[i][0], b[i][1], b[i][2], b[i][3]
		vs := v[:i]
		lk := li[:len(vs)]
		for k := range vs {
			vk, l := &vs[k], lk[k]
			s0 -= l * vk[0]
			s1 -= l * vk[1]
			s2 -= l * vk[2]
			s3 -= l * vk[3]
		}
		d := li[i]
		v[i] = [4]float64{s0 / d, s1 / d, s2 / d, s3 / d}
	}
}

// cholesky writes into l the lower-triangular factor L with A = L·Lᵀ,
// reading the lower triangle of a; l may be a itself. A must be symmetric
// positive definite (the noise floor guarantees it for sane inputs). Each
// pass over k computes four off-diagonal entries of a row; every entry
// keeps the subtraction order A[i][j] − Σ_{k<j} L[i][k]·L[j][k] with k
// increasing, so L is bit for bit the one-entry-at-a-time factor. An entry
// of a is read before the entry of l in its place is written.
func cholesky(l, a [][]float64) error {
	for i := range l {
		li := l[i]
		ai := a[i]
		j := 0
		for ; j+4 <= i; j += 4 {
			s0, s1, s2, s3 := ai[j], ai[j+1], ai[j+2], ai[j+3]
			l0, l1, l2, l3 := l[j], l[j+1], l[j+2], l[j+3]
			lk := li[:j]
			k0, k1, k2, k3 := l0[:len(lk)], l1[:len(lk)], l2[:len(lk)], l3[:len(lk)]
			for k, lik := range lk {
				s0 -= lik * k0[k]
				s1 -= lik * k1[k]
				s2 -= lik * k2[k]
				s3 -= lik * k3[k]
			}
			// The terms k = j … j+2 use the entries this pass just made.
			li[j] = s0 / l0[j]
			s1 -= li[j] * l1[j]
			li[j+1] = s1 / l1[j+1]
			s2 -= li[j] * l2[j]
			s2 -= li[j+1] * l2[j+1]
			li[j+2] = s2 / l2[j+2]
			s3 -= li[j] * l3[j]
			s3 -= li[j+1] * l3[j+1]
			s3 -= li[j+2] * l3[j+2]
			li[j+3] = s3 / l3[j+3]
		}
		for ; j < i; j++ {
			lk := li[:j]
			lj := l[j][:len(lk)]
			sum := ai[j]
			for k, lik := range lk {
				sum -= lik * lj[k]
			}
			li[j] = sum / l[j][j]
		}
		sum := ai[i]
		for _, lik := range li[:i] {
			sum -= lik * lik
		}
		if sum <= 0 {
			return fmt.Errorf("lineasybo: kernel matrix not positive definite at row %d", i)
		}
		li[i] = math.Sqrt(sum)
	}
	return nil
}

// forwardSolve solves L·v = b for lower-triangular L into v.
func forwardSolve(l [][]float64, b, v []float64) {
	for i := range l {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * v[k]
		}
		v[i] = sum / l[i][i]
	}
}

// cholSolve solves (L·Lᵀ)·x = b into x, with v as the forward-solve
// scratch.
func cholSolve(l [][]float64, b, v, x []float64) {
	n := len(l)
	forwardSolve(l, b, v)
	for i := n - 1; i >= 0; i-- {
		sum := v[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k][i] * x[k]
		}
		x[i] = sum / l[i][i]
	}
}

// resize returns s with length n, reallocated only when its capacity is
// short. The contents are whatever s held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
