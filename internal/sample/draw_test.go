package sample

import (
	"testing"

	"github.com/eda-go/moheco/internal/randx"
)

// lhsPermDraw is LHS.Draw with a fresh rng.Perm(n) per coordinate, the
// original form of the plan: the oracle for the reused permutation buffer.
func lhsPermDraw(rng *randx.Stream, n, dim int) [][]float64 {
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

// TestLHSMatchesPermOracle pins the buffered permutation to rand.Perm's
// stream: same points bit for bit, and the stream left at the same state.
func TestLHSMatchesPermOracle(t *testing.T) {
	for _, tc := range []struct {
		n, dim int
		seed   uint64
	}{{0, 4, 1}, {1, 1, 2}, {2, 3, 3}, {17, 5, 4}, {64, 80, 5}, {300, 123, 6}, {2048, 7, 7}} {
		ra, rb := randx.New(tc.seed), randx.New(tc.seed)
		got := LHS{}.Draw(ra, tc.n, tc.dim)
		want := lhsPermDraw(rb, tc.n, tc.dim)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("n=%d dim=%d seed=%d: point [%d][%d] = %v, oracle %v",
						tc.n, tc.dim, tc.seed, i, j, got[i][j], want[i][j])
				}
			}
		}
		if a, b := ra.Uint64(), rb.Uint64(); a != b {
			t.Errorf("n=%d dim=%d seed=%d: stream diverged after the draw", tc.n, tc.dim, tc.seed)
		}
	}
}

// TestLHSDrawAllocsIndependentOfDim pins the per-draw allocation budget:
// the plan's row index, its backing array and one permutation buffer, for
// any dimension.
func TestLHSDrawAllocsIndependentOfDim(t *testing.T) {
	const lhsDrawAllocs = 3
	rng := randx.New(1)
	for _, dim := range []int{5, 123} {
		got := testing.AllocsPerRun(20, func() { LHS{}.Draw(rng, 64, dim) })
		if got != lhsDrawAllocs {
			t.Errorf("LHS.Draw(64, %d): %v allocs, want %d", dim, got, lhsDrawAllocs)
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
