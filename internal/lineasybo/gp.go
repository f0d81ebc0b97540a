package lineasybo

import (
	"fmt"
	"math"
)

// gp is a tiny fixed-hyperparameter Gaussian process used as the surrogate
// for the one-dimensional-subspace acquisition search. Inputs are design
// vectors normalized to the unit cube; the kernel is squared-exponential
// with an isotropic lengthscale, the signal variance is set from the sample
// variance of the targets, and the noise floor absorbs the Monte-Carlo
// estimator's own variance. Everything is closed-form float math over slices
// in a fixed order, so a fit is bit-deterministic for a given training set.
type gp struct {
	xs    [][]float64
	alpha []float64 // (K + σn²I)⁻¹ (y − mean)
	chol  [][]float64
	mean  float64
	ls2   float64 // lengthscale²
	sf2   float64 // signal variance
}

// gpNoise is the observation-noise floor. Stage-1 yield estimates carry
// binomial noise of up to ~(0.5)²/n0; this keeps the Cholesky well
// conditioned without drowning the signal.
const gpNoise = 5e-3

// fitGP fits the surrogate on normalized inputs xs and targets ys.
func fitGP(xs [][]float64, ys []float64, lengthscale float64) (*gp, error) {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return nil, fmt.Errorf("lineasybo: GP fit on %d inputs, %d targets", n, len(ys))
	}
	g := &gp{xs: xs, ls2: lengthscale * lengthscale}
	for _, y := range ys {
		g.mean += y
	}
	g.mean /= float64(n)
	for _, y := range ys {
		d := y - g.mean
		g.sf2 += d * d
	}
	g.sf2 /= float64(n)
	if g.sf2 < 1e-6 {
		g.sf2 = 1e-6
	}
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, i+1)
		for j := 0; j <= i; j++ {
			v := g.kernel(xs[i], xs[j])
			k[i][j] = v
			if i == j {
				k[i][i] += gpNoise
			}
		}
	}
	chol, err := cholesky(k)
	if err != nil {
		return nil, err
	}
	g.chol = chol
	resid := make([]float64, n)
	for i, y := range ys {
		resid[i] = y - g.mean
	}
	g.alpha = cholSolve(chol, resid)
	return g, nil
}

func (g *gp) kernel(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return g.sf2 * math.Exp(-0.5*d2/g.ls2)
}

// predictBatch writes the posterior mean and variance at each normalized
// point xs[p] into mu[p] and sigma2[p]. Points go four at a time through one
// forward solve with four right-hand sides, so each pass over a row of L
// serves four points; every point keeps the exact operation sequence of a
// one-point prediction, so the four lanes of a pass are independent.
func (g *gp) predictBatch(xs [][]float64, mu, sigma2 []float64) {
	const w = 4
	n := len(g.xs)
	kx := make([][w]float64, n) // kx[i][m]: k(point m, training point i)
	v := make([][w]float64, n)
	for p := 0; p < len(xs); p += w {
		// A short last group repeats its last point in the spare lanes.
		pts := xs[p:min(p+w, len(xs))]
		for i, xi := range g.xs {
			for m := range kx[i] {
				if m < len(pts) {
					kx[i][m] = g.kernel(pts[m], xi)
				} else {
					kx[i][m] = kx[i][m-1]
				}
			}
		}
		// σ² = k(x,x) − kxᵀ (K + σn²I)⁻¹ kx, via the triangular solve
		// L·v = kx for the four columns at once.
		for i, li := range g.chol {
			s0, s1, s2, s3 := kx[i][0], kx[i][1], kx[i][2], kx[i][3]
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
			v[i] = [w]float64{s0 / d, s1 / d, s2 / d, s3 / d}
		}
		for m := range pts {
			u := g.mean
			for i, a := range g.alpha {
				u += kx[i][m] * a
			}
			s2 := g.sf2 + gpNoise
			for i := range v {
				s2 -= v[i][m] * v[i][m]
			}
			if s2 < 0 {
				s2 = 0
			}
			mu[p+m], sigma2[p+m] = u, s2
		}
	}
}

// cholesky returns the lower-triangular factor L with A = L·Lᵀ, reading the
// lower triangle of A. A must be symmetric positive definite (the noise
// floor guarantees it for sane inputs). Each pass over k computes four
// off-diagonal entries of a row; every entry keeps the subtraction order
// A[i][j] − Σ_{k<j} L[i][k]·L[j][k] with k increasing, so L is bit for bit
// the one-entry-at-a-time factor.
func cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		li := make([]float64, i+1)
		l[i] = li
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
			return nil, fmt.Errorf("lineasybo: kernel matrix not positive definite at row %d", i)
		}
		li[i] = math.Sqrt(sum)
	}
	return l, nil
}

// forwardSolve solves L·v = b for lower-triangular L.
func forwardSolve(l [][]float64, b []float64) []float64 {
	n := len(l)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * v[k]
		}
		v[i] = sum / l[i][i]
	}
	return v
}

// cholSolve solves (L·Lᵀ)·x = b.
func cholSolve(l [][]float64, b []float64) []float64 {
	n := len(l)
	v := forwardSolve(l, b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := v[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k][i] * x[k]
		}
		x[i] = sum / l[i][i]
	}
	return x
}
