// Package randx provides deterministic random-number utilities for the
// statistical machinery: seeded streams, substream derivation so that
// per-candidate Monte-Carlo runs are reproducible regardless of evaluation
// order, and the standard-normal quantile function used by Latin hypercube
// sampling.
package randx

import (
	"math"
	"math/rand"
)

// Stream is a deterministic pseudo-random stream. It wraps math/rand with an
// explicit source so independent components never share hidden global state.
type Stream struct {
	*rand.Rand
	seed uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{Rand: rand.New(rand.NewSource(int64(seed))), seed: seed}
}

// Seed returns the seed the stream was created with.
func (s *Stream) Seed() uint64 { return s.seed }

// Derive returns a new independent stream whose seed is a strong mix of the
// parent seed and the given identifiers. Deriving the same ids twice yields
// identical streams, which makes per-candidate evaluations reproducible.
func (s *Stream) Derive(ids ...uint64) *Stream {
	h := s.seed
	for _, id := range ids {
		h = mix(h ^ mix(id))
	}
	return New(h)
}

// DeriveSeed mixes ids into a raw child seed without allocating a stream.
func DeriveSeed(seed uint64, ids ...uint64) uint64 {
	h := seed
	for _, id := range ids {
		h = mix(h ^ mix(id))
	}
	return h
}

// mix is the SplitMix64 finalizer; a full-avalanche 64-bit mixer.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NormQuantile returns Φ⁻¹(p), the standard-normal quantile, using the exact
// relation Φ⁻¹(p) = √2·erf⁻¹(2p−1). p must lie in (0, 1): outside it, and
// for NaN, the result is NaN.
func NormQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// NormQuantiles overwrites each p[i] with NormQuantile(p[i]), with the same
// bits. On amd64 with AVX2 an assembly kernel converts four values per step
// (quantile_amd64.go); the scalar loop converts the rest.
func NormQuantiles(p []float64) {
	p = quantilesSIMD(p)
	for i, v := range p {
		p[i] = NormQuantile(v)
	}
}

// NormCDF returns Φ(x), the standard-normal cumulative distribution.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
