package sample

import (
	"github.com/eda-go/moheco/internal/randx"
)

// Halton is a randomized quasi-Monte-Carlo sampler: the d-th coordinate
// follows the van-der-Corput radical-inverse sequence in the d-th prime
// base, with a Cranley–Patterson random shift drawn from the stream so that
// repeated plans are independent and the estimator stays unbiased. QMC
// sequences cover the unit cube more evenly than PMC; like LHS, this
// reduces the variance of smooth integrands. In very high dimensions the
// later coordinates of Halton sequences correlate, which is why LHS remains
// the paper's (and this repo's) default.
type Halton struct{}

// Name implements Sampler.
func (Halton) Name() string { return "Halton" }

// Draw implements Sampler.
func (Halton) Draw(rng *randx.Stream, n, dim int) [][]float64 {
	out, flat := newPlan(n, dim)
	if n == 0 || dim == 0 {
		return out
	}
	primes := firstPrimes(dim)
	// Random start offset and per-dimension shift decorrelate plans.
	start := rng.Intn(1 << 16)
	for d := 0; d < dim; d++ {
		shift := rng.Float64()
		base := primes[d]
		for i := 0; i < n; i++ {
			u := radicalInverse(start+i+1, base) + shift
			if u >= 1 {
				u -= 1
			}
			// Guard the open interval for the normal quantile.
			if u < 1e-12 {
				u = 1e-12
			}
			if u > 1-1e-12 {
				u = 1 - 1e-12
			}
			flat[i*dim+d] = u
		}
	}
	quantiles(flat)
	return out
}

// radicalInverse returns the base-b van der Corput radical inverse of i.
func radicalInverse(i, b int) float64 {
	inv := 1.0 / float64(b)
	f := inv
	r := 0.0
	for i > 0 {
		r += f * float64(i%b)
		i /= b
		f *= inv
	}
	return r
}

// firstPrimes returns the first n primes by trial division (n ≤ a few
// hundred in practice: one prime per variation dimension).
func firstPrimes(n int) []int {
	primes := make([]int, 0, n)
	for c := 2; len(primes) < n; c++ {
		isPrime := true
		for _, p := range primes {
			if p*p > c {
				break
			}
			if c%p == 0 {
				isPrime = false
				break
			}
		}
		if isPrime {
			primes = append(primes, c)
		}
	}
	return primes
}
