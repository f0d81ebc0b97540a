// Package stats provides the small statistical toolkit shared by the yield
// estimator, the OCBA allocator and the experiment harness: running
// mean/variance accumulators, Bernoulli variance with smoothing, and the
// best/worst/average/variance summaries the paper's tables report.
package stats

import "math"

// Welford accumulates mean and variance incrementally and numerically stably.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add feeds one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (0 for fewer than 2 observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Summary holds the best/worst/average/variance rows reported by the paper's
// tables. "Best" is the minimum for costs and deviations.
type Summary struct {
	Best, Worst, Average, Variance float64
	N                              int
}

// Summarize computes a Summary over xs, treating smaller values as better.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Best: math.Inf(1), Worst: math.Inf(-1), N: len(xs)}
	var w Welford
	for _, x := range xs {
		if x < s.Best {
			s.Best = x
		}
		if x > s.Worst {
			s.Worst = x
		}
		w.Add(x)
	}
	s.Average = w.Mean()
	s.Variance = w.Var()
	return s
}

// BernoulliVar returns a smoothed variance estimate p̃(1−p̃) for a Bernoulli
// yield estimate with k successes out of n trials. Laplace smoothing
// p̃ = (k+1)/(n+2) keeps the OCBA allocator from treating an all-pass or
// all-fail candidate as noiseless, which would starve it of samples forever.
func BernoulliVar(k, n int) float64 {
	if n <= 0 {
		return 0.25 // maximum-entropy prior
	}
	p := (float64(k) + 1) / (float64(n) + 2)
	return p * (1 - p)
}

// BernoulliStd returns the smoothed standard deviation for k successes of n.
func BernoulliStd(k, n int) float64 { return math.Sqrt(BernoulliVar(k, n)) }

// Wilson returns the Wilson score interval for k successes in n Bernoulli
// trials at approximately 95% confidence (z = 1.96) — the interval quoted
// alongside Monte-Carlo yield estimates.
func Wilson(k, n int) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	const z = 1.959963984540054
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
