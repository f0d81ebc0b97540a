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

// withLHSPaths runs f, under each path of withQuantilePaths, once per LHS
// kernel path this machine has: the scalar phases, and the AVX2 kernels
// where the CPU supports them.
func withLHSPaths(t *testing.T, f func(t *testing.T)) {
	withQuantilePaths(t, func(t *testing.T) {
		saved := useAVX2
		defer func() { useAVX2 = saved }()
		paths := []bool{false}
		if saved {
			paths = append(paths, true)
		}
		for _, on := range paths {
			useAVX2 = on
			t.Run(fmt.Sprintf("avx2=%v", on), f)
		}
	})
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
	withLHSPaths(t, func(t *testing.T) {
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
//
// At n = 15 the kernels take entries 0–11 in groups of four and leave 12–14
// as the tail. Entries 8–11 (Intn(9) … Intn(12)) and 12–14 can all reject,
// so the scripted cases put a rejection, and an f == 1, at every lane of a
// group and at every tail entry, in the first and in a later coordinate.
// Two more cases drive the jitter's clamps, which read no extra value.
func TestLHSBlockReaderPastBlock(t *testing.T) {
	type tc struct {
		name  string
		n     int
		set   map[int]int64
		extra int // values the draw reads past its blocks
	}
	const hit = 1<<63 - 1
	const n6 = 6
	cases := []tc{
		{"none", n6, nil, 0},
		// Coordinate 1 starts at 2n; its step i = 2 is Intn(3).
		{"shuffle rejection", n6, map[int]int64{2*n6 + 2: hit}, 1},
		// Coordinate 1's first jitter value, the block's (n+1)-th.
		{"jitter f == 1", n6, map[int]int64{2*n6 + n6: hit}, 1},
		// The last value of coordinate 0's block: the retry is the first
		// read past the block, and the later coordinates shift by one.
		{"jitter f == 1 at block end", n6, map[int]int64{2*n6 - 1: hit}, 1},
		{"both, last coordinate", n6, map[int]int64{4*n6 + 4: hit, 4*n6 + n6 + 1: hit, 4*n6 + n6 + 2: hit}, 3},
	}
	const n = 15
	for _, coord := range []int{0, 1} {
		base := 2 * n * coord
		for i := 8; i < n; i++ {
			cases = append(cases,
				tc{fmt.Sprintf("coordinate %d: shuffle rejection at entry %d", coord, i), n, map[int]int64{base + i: hit}, 1},
				// After a rejection at entry 4 every later read is one value
				// late, so the f == 1 lands on stratum i−1's read.
				tc{fmt.Sprintf("coordinate %d: shuffle rejection, then f == 1 at entry %d", coord, i), n,
					map[int]int64{base + 4: hit, base + n + i: hit}, 2})
		}
		for i := 0; i < n; i++ {
			cases = append(cases, tc{fmt.Sprintf("coordinate %d: f == 1 at stratum %d", coord, i), n, map[int]int64{base + n + i: hit}, 1})
		}
		cases = append(cases, tc{fmt.Sprintf("coordinate %d: f == 1 twice in a row", coord), n,
			map[int]int64{base + n + 5: hit, base + n + 6: hit}, 2})
	}
	// Both clamps: f = 0 puts stratum 0 at u = 0, raised to 0.5/n, and
	// f = 1 − 2⁻⁵³ (the value 2⁶³ − 2¹⁰) puts stratum n−1 at u = 1, lowered
	// to 1 − 0.5/n, wherever the permutation sends those strata; at n = 16
	// every row is in a kernel group.
	const n16 = 16
	low, high := map[int]int64{}, map[int]int64{}
	for c := 0; c < 3; c++ {
		for i := 0; i < n16; i++ {
			low[2*n16*c+n16+i] = 0
			high[2*n16*c+n16+i] = 1<<63 - 1<<10
		}
	}
	cases = append(cases, tc{"every f = 0", n16, low, 0}, tc{"every f = 1 − 2⁻⁵³", n16, high, 0})
	const dim = 3
	withLHSPaths(t, func(t *testing.T) {
		for _, c := range cases {
			sa := &scriptedSource{base: randx.New(11), set: c.set}
			sb := &scriptedSource{base: randx.New(11), set: c.set}
			got := lhsDraw(sa, c.n, dim, new(Buffer))
			want := lhsPermDraw(rand.New(sb), c.n, dim)
			samePlans(t, c.name, got, want)
			if sa.pos != sb.pos || sa.pos != 2*c.n*dim+c.extra {
				t.Errorf("%s: read %d values, oracle %d, want %d", c.name, sa.pos, sb.pos, 2*c.n*dim+c.extra)
			}
		}
	})
}

// FuzzLHSDraw checks lhsDraw on both kernel paths against the rand.Perm
// oracle, bit for bit and value for value, over the seed and the plan's
// shape, with one stream value optionally replaced by 2⁶³−1 (a shuffle
// rejection or an f == 1, wherever it lands).
func FuzzLHSDraw(f *testing.F) {
	f.Add(uint64(1), uint16(15), uint8(3), uint16(0))
	f.Add(uint64(7), uint16(465), uint8(2), uint16(473))
	f.Add(uint64(9), uint16(166), uint8(4), uint16(166+17))
	f.Add(uint64(3), uint16(4), uint8(1), uint16(6))
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, dim8 uint8, hitAt uint16) {
		n, dim := int(n16%1024), int(dim8%9)
		var set map[int]int64
		if hitAt > 0 {
			set = map[int]int64{int(hitAt) - 1: 1<<63 - 1}
		}
		saved := useAVX2
		defer func() { useAVX2 = saved }()
		for _, on := range []bool{false, saved} {
			useAVX2 = on
			sa := &scriptedSource{base: randx.New(seed), set: set}
			sb := &scriptedSource{base: randx.New(seed), set: set}
			got := lhsDraw(sa, n, dim, new(Buffer))
			want := lhsPermDraw(rand.New(sb), n, dim)
			samePlans(t, fmt.Sprintf("avx2=%v seed=%d n=%d dim=%d hit=%d", on, seed, n, dim, hitAt), got, want)
			if sa.pos != sb.pos {
				t.Fatalf("avx2=%v seed=%d n=%d dim=%d hit=%d: read %d values, oracle %d", on, seed, n, dim, hitAt, sa.pos, sb.pos)
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

// BenchmarkLHSDraw times one plan per coordinate, a fresh Draw and a draw
// into a warm Buffer (the way AddSamples draws), at the perfbench ladder's
// shape (15 rows of the folded cascode's 80 variation dimensions), a
// telescopic stage-2 shape (64 × 123), and the shapes that draw most of an
// optimize run's samples: stage-2 top-ups of 465 rows on either circuit
// and draws of 166.
func BenchmarkLHSDraw(b *testing.B) {
	for _, sz := range []struct{ n, dim int }{{15, 80}, {64, 123}, {465, 123}, {465, 80}, {166, 80}} {
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

// BenchmarkLHSPhases times each phase of one 465-stratum LHS coordinate,
// per coordinate value: the stream block (on randx's own path switch; its
// BenchmarkInt63s compares the two), then on the scalar and the AVX2 path
// the permutation (index pass and swap loop) and the jitter with the
// quantile pass over its column. The scatter into the rows is the rest of
// BenchmarkLHSDraw/465x123/into.
func BenchmarkLHSPhases(b *testing.B) {
	const n = 465
	run := func(name string, avx2 bool, phase func(src *randx.Stream, steps permSteps, blk []int64, perm, idx []int32, col []float64)) {
		b.Run(name, func(b *testing.B) {
			if avx2 && !useAVX2 {
				b.Skip("no AVX2")
			}
			saved := useAVX2
			defer func() { useAVX2 = saved }()
			useAVX2 = avx2
			var buf Buffer
			steps := buf.permSteps(n)
			blk, perm, idx, col := buf.lhsScratch(n)
			src := randx.New(1)
			src.Int63s(blk)
			steps.permute(perm, idx, values{blk, src})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				phase(src, steps, blk, perm, idx, col)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/coord")
		})
	}
	run("block", useAVX2, func(src *randx.Stream, _ permSteps, blk []int64, _, _ []int32, _ []float64) {
		src.Int63s(blk)
	})
	for _, path := range []struct {
		name string
		on   bool
	}{{"go", false}, {"avx2", true}} {
		run("permute/"+path.name, path.on, func(src *randx.Stream, steps permSteps, blk []int64, perm, idx []int32, _ []float64) {
			steps.permute(perm, idx, values{blk, src})
		})
		run("jitter+quantile/"+path.name, path.on, func(src *randx.Stream, _ permSteps, blk []int64, perm, _ []int32, col []float64) {
			jitter(col[:n], perm, values{blk, src}, n)
			for i := n; i < len(col); i++ {
				col[i] = 0.5
			}
			quantiles(col)
		})
	}
}
