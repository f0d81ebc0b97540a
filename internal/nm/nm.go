// Package nm implements the Nelder–Mead simplex method with the standard
// (Lagarias et al. 1998) coefficients, bounded to a box. MOHECO uses it as
// the local refinement operator of its memetic search: roughly ten
// iterations around the best DE member, triggered only when the global
// search stalls, because every NM evaluation costs a full-accuracy yield
// estimate.
package nm

import (
	"math"
	"sort"
)

// Coefficients of the standard simplex method.
const (
	reflection  = 1.0
	expansion   = 2.0
	contraction = 0.5
	shrink      = 0.5
	// tol stops the search early when the simplex's objective spread
	// falls below it.
	tol = 1e-12
)

// Options bounds the search.
type Options struct {
	// MaxIter caps simplex iterations (default 10, per the paper's
	// budget-conscious memetic design).
	MaxIter int
	// Scale sets the initial simplex size as a fraction of the box width
	// per coordinate (default 0.05).
	Scale float64
	// Lo, Hi clamp all evaluated points (required).
	Lo, Hi []float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 10
	}
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	return o
}

// Result is the best point found and bookkeeping.
type Result struct {
	X           []float64
	F           float64
	Iterations  int
	Evaluations int
}

// Minimize runs the simplex method on f from x0. f is minimized; callers
// optimizing yield pass f = -yield. Points are clamped into [Lo, Hi] before
// every evaluation.
func Minimize(f func([]float64) float64, x0 []float64, opts Options) Result {
	o := opts.withDefaults()
	n := len(x0)
	clamp := func(x []float64) {
		for i := range x {
			if o.Lo != nil && x[i] < o.Lo[i] {
				x[i] = o.Lo[i]
			}
			if o.Hi != nil && x[i] > o.Hi[i] {
				x[i] = o.Hi[i]
			}
		}
	}
	evals := 0
	eval := func(x []float64) float64 {
		clamp(x)
		evals++
		return f(x)
	}

	// Initial simplex: x0 plus per-coordinate steps of Scale·(hi-lo).
	type vertex struct {
		x []float64
		f float64
	}
	simplex := make([]vertex, n+1)
	base := append([]float64(nil), x0...)
	clamp(base)
	simplex[0] = vertex{x: base, f: eval(base)}
	for i := 0; i < n; i++ {
		x := append([]float64(nil), base...)
		step := o.Scale
		if o.Lo != nil && o.Hi != nil {
			step = o.Scale * (o.Hi[i] - o.Lo[i])
		}
		if step == 0 {
			step = 1e-6
		}
		// Step toward the interior when at the upper bound.
		if o.Hi != nil && x[i]+step > o.Hi[i] {
			x[i] -= step
		} else {
			x[i] += step
		}
		simplex[i+1] = vertex{x: x, f: eval(x)}
	}

	order := func() {
		sort.SliceStable(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
	}
	order()

	iters := 0
	for ; iters < o.MaxIter; iters++ {
		if math.Abs(simplex[n].f-simplex[0].f) < tol {
			break
		}
		// Centroid of all but the worst.
		centroid := make([]float64, n)
		for _, v := range simplex[:n] {
			for j := range centroid {
				centroid[j] += v.x[j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(n)
		}
		worst := simplex[n]
		point := func(coef float64) ([]float64, float64) {
			x := make([]float64, n)
			for j := range x {
				x[j] = centroid[j] + coef*(centroid[j]-worst.x[j])
			}
			return x, eval(x)
		}

		xr, fr := point(reflection)
		switch {
		case fr < simplex[0].f:
			// Try expansion.
			xe, fe := point(expansion)
			if fe < fr {
				simplex[n] = vertex{xe, fe}
			} else {
				simplex[n] = vertex{xr, fr}
			}
		case fr < simplex[n-1].f:
			simplex[n] = vertex{xr, fr}
		default:
			// Contraction (outside if the reflection helped at all).
			var xc []float64
			var fc float64
			if fr < worst.f {
				xc, fc = point(reflection * contraction)
			} else {
				xc, fc = point(-contraction)
			}
			if fc < math.Min(fr, worst.f) {
				simplex[n] = vertex{xc, fc}
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + shrink*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = eval(simplex[i].x)
				}
			}
		}
		order()
	}
	best := simplex[0]
	return Result{
		X:           append([]float64(nil), best.x...),
		F:           best.f,
		Iterations:  iters,
		Evaluations: evals,
	}
}
