package randx

import (
	"math"
	"math/rand"
	"testing"
)

// withPaths runs f once per NormQuantiles path this machine has: the
// portable Go loop, and the AVX2 kernel where the CPU supports it.
func withPaths(t testing.TB, f func(t testing.TB)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	paths := []bool{false}
	if saved {
		paths = append(paths, true)
	}
	for _, on := range paths {
		useAVX2 = on
		f(t)
	}
}

// sameBits compares NormQuantiles on a copy of p with the scalar oracle,
// value by value, as IEEE-754 bit patterns. NaN results compare as NaN:
// both paths return math.NaN() for every undecided-NaN input, but the
// payload of a NaN input is not part of the contract.
func checkQuantiles(t testing.TB, p []float64) {
	t.Helper()
	got := append([]float64(nil), p...)
	NormQuantiles(got)
	for i, v := range p {
		want := NormQuantile(v)
		if math.Float64bits(got[i]) != math.Float64bits(want) && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
			t.Fatalf("avx2=%v: NormQuantiles(p)[%d] for p=%v (%#016x) = %v (%#016x), scalar %v (%#016x)",
				useAVX2, i, v, math.Float64bits(v), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestNormQuantilesMatchScalar pins the batched quantile to the scalar one
// bit for bit, on both paths, over special values, branch-boundary
// neighbours, random p and every length 0–9 (a partial tail group).
func TestNormQuantilesMatchScalar(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), 1, math.Inf(1), math.Inf(-1), math.NaN(),
		-0.1, -1, -1e300, 1.1, 2, 1e300,
		math.SmallestNonzeroFloat64, 4.9e-322, 2.2250738585072014e-308, 1e-300, 1e-20,
		0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		0x1p-53, 0x1p-54, 0x1p-55, 1 - 0x1p-53, math.Nextafter(1, 0),
		1.4e-11, 1e-12, 1 - 1e-12,
	}
	// |2p−1| = 0.85 at p = 0.075 and 0.925; r = 5 where
	// 1 − |2p−1| = exp(ln2 − 25), p ≈ 1.389e-11 from either end.
	for _, b := range []float64{0.075, 0.925, 0.5 * math.Exp(math.Ln2-25), 1 - 0.5*math.Exp(math.Ln2-25)} {
		v := b
		for i := 0; i < 40; i++ {
			v = math.Nextafter(v, 0)
		}
		for i := 0; i < 80; i++ {
			special = append(special, v)
			v = math.Nextafter(v, 1)
		}
	}
	rng := rand.New(rand.NewSource(1))
	withPaths(t, func(t testing.TB) {
		checkQuantiles(t, special)
		// Every rotation, so each special value sits in every lane.
		for s := 0; s < 4; s++ {
			checkQuantiles(t, special[s:])
		}
		for n := 0; n <= 9; n++ {
			p := make([]float64, n)
			for i := range p {
				p[i] = rng.Float64()
			}
			checkQuantiles(t, p)
		}
		p := make([]float64, 1<<16)
		for i := range p {
			switch i % 3 {
			case 0:
				p[i] = rng.Float64()
			case 1: // the tails
				p[i] = math.Pow(rng.Float64(), 8)
			default:
				p[i] = 1 - math.Pow(rng.Float64(), 8)
			}
		}
		checkQuantiles(t, p)
		// A lone undecided lane in the middle of a run of decided groups.
		p = p[:64]
		p[37] = math.NaN()
		checkQuantiles(t, p)
	})
}

// FuzzNormQuantiles feeds arbitrary bit patterns, four at a time plus a
// tail, through both paths and compares each with the scalar quantile.
func FuzzNormQuantiles(f *testing.F) {
	f.Add(uint64(0x3FE0000000000000), uint64(0x3FB3333333333333), uint64(0x3FED99999999999A), uint64(0x7FF8000000000001), uint64(0x3C90000000000000))
	f.Add(uint64(0), uint64(0x3FF0000000000000), uint64(0x8000000000000000), uint64(0x3DA8000000000000), uint64(1))
	f.Fuzz(func(t *testing.T, a, b, c, d, e uint64) {
		p := []float64{
			math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d),
			math.Float64frombits(e), math.Float64frombits(a ^ e), math.Float64frombits(b ^ d), math.Float64frombits(c ^ a),
			math.Float64frombits(e),
		}
		// Also the fraction bits of each pattern as a p in [0.5, 1) and
		// (0, 0.5], where the decided lanes live.
		for _, w := range []uint64{a, b, c, d, e} {
			u := math.Float64frombits(0x3FE0000000000000 | w&0x000FFFFFFFFFFFFF)
			p = append(p, u, 1-u)
		}
		withPaths(t, func(t testing.TB) { checkQuantiles(t, p) })
	})
}

func BenchmarkNormQuantiles(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 1024)
	for i := range src {
		src[i] = rng.Float64()
	}
	buf := make([]float64, len(src))
	for _, path := range []struct {
		name string
		on   bool
	}{{"go", false}, {"avx2", true}} {
		b.Run(path.name, func(b *testing.B) {
			if path.on && !useAVX2 {
				b.Skip("no AVX2")
			}
			saved := useAVX2
			defer func() { useAVX2 = saved }()
			useAVX2 = path.on
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				NormQuantiles(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/value")
		})
	}
}
