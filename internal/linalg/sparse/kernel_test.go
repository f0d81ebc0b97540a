package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// These tests compare the two K=8 kernel paths, the generic Go lane loop of
// batch.go and the AVX2 assembly, bit for bit. The assembly runs only on
// an amd64 CPU with AVX2; elsewhere the comparisons have nothing to
// compare and skip.

// kernelPaths returns the K=8 kernel paths this CPU can run: the Go kernel
// (false) and, with AVX2, the assembly (true).
func kernelPaths() []bool {
	if cpuAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// cpuAVX2 is useAVX2 as the CPU set it, before any test switched it.
var cpuAVX2 = useAVX2

// withKernel runs f with the K=8 kernel path selected by simd.
func withKernel(simd bool, f func()) {
	defer func() { useAVX2 = cpuAVX2 }()
	useAVX2 = simd
	f()
}

// forEachKernel runs f as a subtest under every K=8 kernel path.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, simd := range kernelPaths() {
		name := "go"
		if simd {
			name = "avx2"
		}
		withKernel(simd, func() { t.Run(name, f) })
	}
}

// kernelSpecials are the pivot and entry values the assembly must treat
// exactly like the Go kernel: signed zeros, subnormals whose reciprocals
// overflow, values near overflow and the IEEE specials.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -3, 1 + 0x1p-52,
	5e-324, -5e-324, 1e-310, -4e-320, 0x1p-1022, -0x1p-1022, 0x1p-1023,
	math.MaxFloat64, -math.MaxFloat64, 1e308, 0x1p1023,
	math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
}

// kernelFloat draws one entry: mostly a normal draw, sometimes a special
// value or a random bit pattern.
func kernelFloat(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return kernelSpecials[rng.Intn(len(kernelSpecials))]
	case 1:
		return math.Float64frombits(rng.Uint64())
	}
	return rng.NormFloat64()
}

// compareKernels factors and solves one 8-lane batch with the Go kernel
// and with the assembly, from the same values and right-hand sides, and
// requires the same factors, reciprocals, errors and solutions bit for bit
// in every lane, failed lanes included. NaNs match whatever their payloads
// (see sameBits): when both operands of an operation are NaN, the payload
// follows gc's register choice, not the source.
func compareKernels[T Scalar](t *testing.T, s *Symbolic, vals, rhs []T, r *Reach) {
	t.Helper()
	const k = kernelWidth
	run := func(simd bool) (*BatchMatrix[T], []error, []T, []error) {
		m := NewBatchMatrix[T](s, k)
		copy(m.vals, vals)
		b := append([]T(nil), rhs...)
		var ferrs, serrs []error
		withKernel(simd, func() {
			ferrs = append(ferrs, m.Factorize()...)
			serrs = append(serrs, m.SolveFor(b, r)...)
		})
		return m, ferrs, b, serrs
	}
	gm, gf, gb, gs := run(false)
	am, af, ab, as := run(true)
	for l := 0; l < k; l++ {
		if !sameErr(gf[l], af[l]) || !sameErr(gs[l], as[l]) {
			t.Fatalf("lane %d: Go kernel errors (%v, %v), AVX2 (%v, %v)", l, gf[l], gs[l], af[l], as[l])
		}
	}
	for i := range gm.vals {
		if !sameBits(gm.vals[i], am.vals[i]) {
			t.Fatalf("value %d (lane %d): Go kernel %v, AVX2 %v", i, i%k, gm.vals[i], am.vals[i])
		}
	}
	for i := range gm.inv {
		if !sameBits(gm.inv[i], am.inv[i]) {
			t.Fatalf("reciprocal %d (lane %d): Go kernel %v, AVX2 %v", i, i%k, gm.inv[i], am.inv[i])
		}
	}
	for i := range gb {
		if !sameBits(gb[i], ab[i]) {
			t.Fatalf("solution %d (lane %d): Go kernel %v, AVX2 %v", i, i%k, gb[i], ab[i])
		}
	}
}

// kernelBatch fills an 8-lane batch over s: each lane is clean, zeroed
// (a retired lane of a partial group), salted with special values, or
// given a singular or subnormal row (a lane that fails and is carried to
// the last row).
func kernelBatch[T Scalar](rng *rand.Rand, s *Symbolic) []T {
	const k = kernelWidth
	vals := make([]T, (s.NNZ()+1)*k)
	for l := 0; l < k; l++ {
		switch kind := rng.Intn(6); kind {
		case 0:
			// Zeroed lane: every pivot is zero.
		case 1:
			for t := 0; t < s.NNZ(); t++ {
				vals[t*k+l] = fromParts[T](kernelFloat(rng), kernelFloat(rng))
			}
		default:
			oracleValues(rng, s, vals, k, l, laneKind(kind-2))
		}
	}
	return vals
}

// The AVX2 kernel matches the Go K=8 kernel bit for bit on random patterns
// with adversarial lanes — −0, subnormals, NaN and ±Inf parts, zero
// pivots, overflowing reciprocals, lanes that already failed and partly
// zeroed groups — for the factorization and for the full and reach-limited
// substitution, real and complex.
func TestAVX2MatchesGoKernel(t *testing.T) {
	if !cpuAVX2 {
		t.Skip("CPU has no AVX2: only the Go kernel runs")
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		s, err := randPattern(rng, n, 3*n).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		reaches := []*Reach{s.all, s.Reach(rng.Intn(n))}
		for _, r := range reaches {
			rr := make([]float64, n*kernelWidth)
			rc := make([]complex128, n*kernelWidth)
			for i := range rr {
				rr[i] = kernelFloat(rng)
				rc[i] = complex(kernelFloat(rng), kernelFloat(rng))
			}
			compareKernels(t, s, kernelBatch[float64](rng, s), rr, r)
			compareKernels(t, s, kernelBatch[complex128](rng, s), rc, r)
		}
	}
}

// The assembly pivot step decides every lane exactly like realPivot and
// complexPivot: one-row systems whose eight pivots are drawn from the
// special values (each part, for complex) and from random bit patterns.
func TestAVX2PivotMatchesScalar(t *testing.T) {
	if !cpuAVX2 {
		t.Skip("CPU has no AVX2: only the Go kernel runs")
	}
	b := NewBuilder(1)
	b.Add(0, 0)
	s, err := b.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return math.Float64frombits(rng.Uint64())
		}
		return kernelSpecials[rng.Intn(len(kernelSpecials))]
	}
	for trial := 0; trial < 20000; trial++ {
		vr := make([]float64, 2*kernelWidth)
		vc := make([]complex128, 2*kernelWidth)
		for l := 0; l < kernelWidth; l++ {
			vr[l] = draw()
			vc[l] = complex(draw(), draw())
		}
		compareKernels(t, s, vr, make([]float64, kernelWidth), s.all)
		compareKernels(t, s, vc, make([]complex128, kernelWidth), s.all)
	}
}
