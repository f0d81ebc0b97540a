package sample

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/eda-go/moheco/internal/randx"
)

// permFloater is the part of math/rand's API the LHS oracle draws with;
// *randx.Stream and *rand.Rand both have it.
type permFloater interface {
	Perm(n int) []int
	Float64() float64
}

// lhsPermDraw is LHS.Draw with a fresh rng.Perm(n) per coordinate, the
// original form of the plan: the oracle for the reused permutation buffer
// and the block reads.
func lhsPermDraw(rng permFloater, n, dim int) [][]float64 {
	out := NewPlan(n, dim)
	if n == 0 {
		return out
	}
	for j := 0; j < dim; j++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			u := (float64(perm[i]) + rng.Float64()) / float64(n)
			if u <= 0 {
				u = 0.5 / float64(n)
			}
			if u >= 1 {
				u = 1 - 0.5/float64(n)
			}
			out[i][j] = randx.NormQuantile(u)
		}
	}
	return out
}

// scalarQuantiles is randx.NormQuantiles' portable path: the scalar
// quantile, value by value.
func scalarQuantiles(p []float64) {
	for i, v := range p {
		p[i] = randx.NormQuantile(v)
	}
}

// withQuantilePaths runs f with the plan's quantile pass on the scalar loop
// and on randx.NormQuantiles (its AVX2 kernel where the CPU has one).
func withQuantilePaths(t *testing.T, f func(t *testing.T)) {
	saved := quantiles
	defer func() { quantiles = saved }()
	for _, path := range []struct {
		name string
		q    func([]float64)
	}{{"scalar", scalarQuantiles}, {"batched", randx.NormQuantiles}} {
		quantiles = path.q
		t.Run(path.name, f)
	}
}

// samePlans fails unless got and want hold the same points bit for bit.
func samePlans(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d coordinates, oracle %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: point [%d][%d] = %v, oracle %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestLHSMatchesPermOracle pins the buffered, division-free permutation and
// the batched quantile pass to rand.Perm's stream and the per-coordinate
// quantile: same points bit for bit, and the stream left at the same state.
// The sizes cover n = 0–9, powers of two (Int31n's mask branch) and dim 0.
func TestLHSMatchesPermOracle(t *testing.T) {
	type tc struct {
		n, dim int
		seed   uint64
	}
	cases := []tc{{0, 4, 1}, {1, 1, 2}, {2, 3, 3}, {17, 5, 4}, {64, 80, 5}, {300, 123, 6}, {2048, 7, 7},
		{5, 0, 8}, {0, 0, 9}, {16, 3, 10}, {128, 9, 11}, {1024, 2, 12}}
	for n := 1; n <= 9; n++ {
		cases = append(cases, tc{n, 5, uint64(20 + n)})
	}
	withQuantilePaths(t, func(t *testing.T) {
		for _, c := range cases {
			ra, rb := randx.New(c.seed), randx.New(c.seed)
			got := LHS{}.Draw(ra, c.n, c.dim)
			want := lhsPermDraw(rb, c.n, c.dim)
			samePlans(t, fmt.Sprintf("n=%d dim=%d seed=%d", c.n, c.dim, c.seed), got, want)
			if a, b := ra.Uint64(), rb.Uint64(); a != b {
				t.Errorf("n=%d dim=%d seed=%d: stream diverged after the draw", c.n, c.dim, c.seed)
			}
		}
	})
}

// haltonScalarDraw is Halton.Draw with the quantile taken coordinate by
// coordinate, the original form of the plan.
func haltonScalarDraw(rng *randx.Stream, n, dim int) [][]float64 {
	out := NewPlan(n, dim)
	if n == 0 || dim == 0 {
		return out
	}
	primes := firstPrimes(dim)
	start := rng.Intn(1 << 16)
	for d := 0; d < dim; d++ {
		shift := rng.Float64()
		for i := 0; i < n; i++ {
			u := radicalInverse(start+i+1, primes[d]) + shift
			if u >= 1 {
				u -= 1
			}
			if u < 1e-12 {
				u = 1e-12
			}
			if u > 1-1e-12 {
				u = 1 - 1e-12
			}
			out[i][d] = randx.NormQuantile(u)
		}
	}
	return out
}

// TestHaltonMatchesScalarOracle pins the batched quantile pass of the
// Halton plan to the per-coordinate quantile.
func TestHaltonMatchesScalarOracle(t *testing.T) {
	withQuantilePaths(t, func(t *testing.T) {
		for _, c := range []struct {
			n, dim int
			seed   uint64
		}{{0, 3, 1}, {3, 0, 2}, {1, 1, 3}, {7, 5, 4}, {64, 80, 5}, {257, 123, 6}} {
			ra, rb := randx.New(c.seed), randx.New(c.seed)
			samePlans(t, fmt.Sprintf("n=%d dim=%d seed=%d", c.n, c.dim, c.seed),
				Halton{}.Draw(ra, c.n, c.dim), haltonScalarDraw(rb, c.n, c.dim))
			if a, b := ra.Uint64(), rb.Uint64(); a != b {
				t.Errorf("n=%d dim=%d seed=%d: stream diverged after the draw", c.n, c.dim, c.seed)
			}
		}
	})
}

// TestPermStepsMatchIntn pins each precomputed reduction to rng.Intn(m):
// the same value and the same stream consumption, for every m up to 5000
// and for m near 2³¹, where Int31n rejects most often.
func TestPermStepsMatchIntn(t *testing.T) {
	ms := []uint32{3 << 29, 1<<31 - 1, 1<<30 + 1, 1 << 30}
	for m := uint32(1); m <= 5000; m++ {
		ms = append(ms, m)
	}
	ra, rb := randx.New(3), randx.New(3)
	for _, m := range ms {
		st := newPermStep(m)
		for k := 0; k < 4; k++ {
			got, ok := st.reduce(ra.Int31(), m)
			for !ok {
				got, ok = st.reduce(ra.Int31(), m)
			}
			if want := rb.Intn(int(m)); int(got) != want {
				t.Fatalf("Intn(%d) = %d, oracle %d", m, got, want)
			}
		}
	}
	if a, b := ra.Uint64(), rb.Uint64(); a != b {
		t.Error("stream diverged")
	}
}

// scriptedSource is a randx stream with chosen values at chosen positions:
// value k of the stream (counting from 0) is replaced by set[k]. lhsDraw
// reads it directly and the oracle through rand.New, so both see the same
// values in the same order.
type scriptedSource struct {
	base *randx.Stream
	pos  int
	set  map[int]int64
}

func (s *scriptedSource) Int63() int64 {
	v := s.base.Int63()
	if w, ok := s.set[s.pos]; ok {
		v = w
	}
	s.pos++
	return v
}

func (s *scriptedSource) Int63s(dst []int64) {
	for i := range dst {
		dst[i] = s.Int63()
	}
}

func (s *scriptedSource) Seed(int64) { panic("scriptedSource: Seed") }

// TestLHSBlockReaderPastBlock drives a coordinate's reads past its block
// of 2n values and checks the plan and the stream against the oracle. A
// value of 2⁶³−1 makes a shuffle step Intn(m) with m not a power of two
// reject (Int31 = 2³¹−1 is above its bound) and makes a jitter Float64
// round to 1 and redraw; either way the coordinate reads one value past its
// block, from the stream.
func TestLHSBlockReaderPastBlock(t *testing.T) {
	const n, dim = 6, 3
	const hit = 1<<63 - 1
	cases := []struct {
		name  string
		set   map[int]int64
		extra int // values the draw reads past its blocks
	}{
		{"none", nil, 0},
		// Coordinate 1 starts at 2n; its step i = 2 is Intn(3).
		{"shuffle rejection", map[int]int64{2*n + 2: hit}, 1},
		// Coordinate 1's first jitter value, the block's (n+1)-th.
		{"jitter f == 1", map[int]int64{2*n + n: hit}, 1},
		// The last value of coordinate 0's block: the retry is the first
		// read past the block, and the later coordinates shift by one.
		{"jitter f == 1 at block end", map[int]int64{2*n - 1: hit}, 1},
		{"both, last coordinate", map[int]int64{4*n + 4: hit, 4*n + n + 1: hit, 4*n + n + 2: hit}, 3},
	}
	withQuantilePaths(t, func(t *testing.T) {
		for _, c := range cases {
			sa := &scriptedSource{base: randx.New(11), set: c.set}
			sb := &scriptedSource{base: randx.New(11), set: c.set}
			got := lhsDraw(sa, n, dim, new(Buffer))
			want := lhsPermDraw(rand.New(sb), n, dim)
			samePlans(t, c.name, got, want)
			if sa.pos != sb.pos || sa.pos != 2*n*dim+c.extra {
				t.Errorf("%s: read %d values, oracle %d, want %d", c.name, sa.pos, sb.pos, 2*n*dim+c.extra)
			}
		}
	})
}

// TestDrawIntoMatchesDraw pins plans drawn into one reused Buffer, through
// growing and shrinking shapes, to fresh Draws of every sampler.
func TestDrawIntoMatchesDraw(t *testing.T) {
	shapes := [][2]int{{17, 5}, {64, 80}, {3, 123}, {0, 4}, {128, 9}, {5, 0}, {40, 40}}
	for _, s := range []Sampler{PMC{}, LHS{}, Halton{}} {
		ra, rb := randx.New(4), randx.New(4)
		var buf Buffer
		for _, sh := range shapes {
			got := DrawInto(s, ra, sh[0], sh[1], &buf)
			samePlans(t, fmt.Sprintf("%s %dx%d", s.Name(), sh[0], sh[1]), got, s.Draw(rb, sh[0], sh[1]))
		}
		if a, b := ra.Uint64(), rb.Uint64(); a != b {
			t.Errorf("%s: stream diverged", s.Name())
		}
	}
}

// TestDrawIntoAllocs pins the steady state of a reused Buffer: once it has
// held the largest plan, a draw of any sampler allocates nothing.
func TestDrawIntoAllocs(t *testing.T) {
	rng := randx.New(1)
	for _, s := range []Sampler{PMC{}, LHS{}} {
		var buf Buffer
		DrawInto(s, rng, 64, 123, &buf)
		for _, sh := range [][2]int{{64, 123}, {15, 80}, {7, 5}} {
			if got := testing.AllocsPerRun(20, func() { DrawInto(s, rng, sh[0], sh[1], &buf) }); got != 0 {
				t.Errorf("%s %dx%d into a warm buffer: %v allocs, want 0", s.Name(), sh[0], sh[1], got)
			}
		}
	}
}

// TestPMCFillStreamsDraw pins the property streamed plans rely on: filling
// one buffer block by block reproduces the rows of a single Draw.
func TestPMCFillStreamsDraw(t *testing.T) {
	const n, dim, block = 50, 9, 16
	want := PMC{}.Draw(randx.New(3), n, dim)
	rng := randx.New(3)
	buf := NewPlan(block, dim)
	for lo := 0; lo < n; lo += len(buf) {
		buf = buf[:min(len(buf), n-lo)]
		PMC{}.Fill(rng, buf)
		for i, row := range buf {
			for j, v := range row {
				if v != want[lo+i][j] {
					t.Fatalf("row %d coord %d: streamed %v, drawn %v", lo+i, j, v, want[lo+i][j])
				}
			}
		}
	}
}

// planSink keeps the benchmarked draws live.
var planSink [][]float64

// BenchmarkLHSDraw times one plan at the perfbench ladder's shape (15 rows
// of the folded cascode's 80 variation dimensions) and at a telescopic
// stage-2 shape (64 × 123), per coordinate: a fresh Draw, and a draw into
// a warm Buffer, the way AddSamples draws.
func BenchmarkLHSDraw(b *testing.B) {
	for _, sz := range []struct{ n, dim int }{{15, 80}, {64, 123}} {
		b.Run(fmt.Sprintf("%dx%d", sz.n, sz.dim), func(b *testing.B) {
			rng := randx.New(1)
			for i := 0; i < b.N; i++ {
				planSink = LHS{}.Draw(rng, sz.n, sz.dim)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sz.n*sz.dim), "ns/coord")
		})
		b.Run(fmt.Sprintf("%dx%d/into", sz.n, sz.dim), func(b *testing.B) {
			rng := randx.New(1)
			var buf Buffer
			for i := 0; i < b.N; i++ {
				planSink = DrawInto(LHS{}, rng, sz.n, sz.dim, &buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sz.n*sz.dim), "ns/coord")
		})
	}
}
