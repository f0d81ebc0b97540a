package randx

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand pins the in-package source to math/rand's for
// seeds on both sides of the seed % (2³¹−1) reduction and the zero-seed
// substitution (0 and 2³¹−1 both seed as 89482311), over several turns of
// the 607-word register.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []uint64{0, 1, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1 << 40, ^uint64(0)} {
		got, want := New(seed), rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < 3*rngLen; i++ {
			if i%2 == 0 {
				if a, b := got.Int63(), want.Int63(); a != b {
					t.Fatalf("seed %d: Int63 #%d = %d, math/rand %d", seed, i, a, b)
				}
			} else if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d: Uint64 #%d = %d, math/rand %d", seed, i, a, b)
			}
		}
	}
}

// TestSeedJumpAheadMatchesMathRand pins the jump-ahead Seed, which reads
// each state of the seeding generator through its own multiplier, to
// math/rand's sequential seeding: over the first 700 values (past one turn
// of the register) for random seeds, 0, negative seeds, and multiples of
// 2³¹−1 and their neighbours.
func TestSeedJumpAheadMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, math.MinInt64, math.MaxInt64}
	for _, k := range []int64{1, 2, 3, 1 << 20, -1, -7} {
		m := k * int32max
		seeds = append(seeds, m-1, m, m+1)
	}
	pick := rand.New(rand.NewSource(11))
	n := 20000
	if testing.Short() {
		n = 1000
	}
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	var got source
	for _, seed := range seeds {
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 700; i++ {
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d: value %d = %d, math/rand %d", seed, i, a, b)
			}
		}
	}
}

// TestInt63sInterleaves pins Int63s to len(dst) Int63 calls of math/rand's
// stream while Float64, Intn, NormFloat64 and Perm draws interleave with
// it: block lengths run from 0 past the 607-word register, so blocks start
// and end on every side of the tap and feed wraps. Both Int63s paths run.
func TestInt63sInterleaves(t *testing.T) {
	withPaths(t, func(t testing.TB) {
		pick := rand.New(rand.NewSource(5))
		for _, seed := range []uint64{1, 7, 1 << 40} {
			got, want := New(seed), rand.New(rand.NewSource(int64(seed)))
			for step := 0; step < 400; step++ {
				switch pick.Intn(5) {
				case 0:
					n := pick.Intn(3 * rngLen)
					if step%7 == 0 {
						n = rngLen + pick.Intn(5) - 2
					}
					checkInt63s(t, got, want, n)
				case 1:
					if a, b := got.Float64(), want.Float64(); a != b {
						t.Fatalf("avx2=%v seed %d step %d: Float64 %v, math/rand %v", useAVX2, seed, step, a, b)
					}
				case 2:
					n := 1 + pick.Intn(1000)
					if a, b := got.Intn(n), want.Intn(n); a != b {
						t.Fatalf("avx2=%v seed %d step %d: Intn(%d) %d, math/rand %d", useAVX2, seed, step, n, a, b)
					}
				case 3:
					if a, b := got.NormFloat64(), want.NormFloat64(); a != b {
						t.Fatalf("avx2=%v seed %d step %d: NormFloat64 %v, math/rand %v", useAVX2, seed, step, a, b)
					}
				case 4:
					n := pick.Intn(50)
					a, b := got.Perm(n), want.Perm(n)
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("avx2=%v seed %d step %d: Perm(%d) = %v, math/rand %v", useAVX2, seed, step, n, a, b)
						}
					}
				}
			}
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("avx2=%v seed %d: stream diverged after the interleaving", useAVX2, seed)
			}
		}
	})
}

// TestInt63sRunsAcrossWraps starts blocks 0–11 values before the feed and
// the tap wraps (feed starts 334 values and tap 607 values from index 0),
// with lengths that end 0–11 values past them. So the run before a wrap is
// every length mod 4, the kernel's groups start at every lane offset from
// the wrap, and the run after it is long or short, on both paths.
func TestInt63sRunsAcrossWraps(t *testing.T) {
	withPaths(t, func(t testing.TB) {
		for _, wrap := range []int{rngLen - rngTap, rngLen, 2*rngLen - rngTap, 2 * rngLen} {
			for before := 0; before < 12; before++ {
				for after := 0; after < 12; after++ {
					got, want := New(3), rand.New(rand.NewSource(3))
					for i := 0; i < wrap-before; i++ {
						got.Int63()
						want.Int63()
					}
					checkInt63s(t, got, want, before+after)
					checkInt63s(t, got, want, 41)
					if a, b := got.Uint64(), want.Uint64(); a != b {
						t.Fatalf("avx2=%v wrap %d, %d before, %d after: stream diverged", useAVX2, wrap, before, after)
					}
				}
			}
		}
	})
}

// checkInt63s reads n values through got.Int63s and compares them with n
// Int63 calls of want.
func checkInt63s(t testing.TB, got *Stream, want *rand.Rand, n int) {
	t.Helper()
	blk := make([]int64, n)
	got.Int63s(blk)
	for i, v := range blk {
		if w := want.Int63(); v != w {
			t.Fatalf("avx2=%v: Int63s(%d)[%d] = %d, math/rand %d", useAVX2, n, i, v, w)
		}
	}
}

// int63sSink keeps the benchmarked blocks live.
var int63sSink int64

// BenchmarkInt63s compares one 160-value block (the two halves of an LHS
// coordinate at n = 80), on the Go loop and the AVX2 kernel, with as many
// Int63 calls.
func BenchmarkInt63s(b *testing.B) {
	blk := make([]int64, 160)
	for _, path := range []struct {
		name string
		on   bool
	}{{"block/go", false}, {"block/avx2", true}} {
		b.Run(path.name, func(b *testing.B) {
			if path.on && !useAVX2 {
				b.Skip("no AVX2")
			}
			saved := useAVX2
			defer func() { useAVX2 = saved }()
			useAVX2 = path.on
			s := New(1)
			for i := 0; i < b.N; i++ {
				s.Int63s(blk)
			}
			int63sSink = blk[0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blk)), "ns/value")
		})
	}
	b.Run("calls", func(b *testing.B) {
		s := New(1)
		for i := 0; i < b.N; i++ {
			for j := range blk {
				blk[j] = s.Int63()
			}
		}
		int63sSink = blk[0]
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blk)), "ns/value")
	})
}

// BenchmarkSeed times seeding the 607-word register, the cost of every
// New (one stream per candidate in an optimize run).
func BenchmarkSeed(b *testing.B) {
	var s source
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}
