package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randPattern builds a random n×n pattern with a guaranteed structural
// diagonal plus extra off-diagonal entries, the MNA-like shape the engine
// produces. Entries are added with duplicates on purpose: the builder must
// collapse them.
func randPattern(rng *rand.Rand, n int, extra int) *Builder {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i)
	}
	for e := 0; e < extra; e++ {
		r, c := rng.Intn(n), rng.Intn(n)
		b.Add(r, c)
		if rng.Intn(3) == 0 {
			b.Add(r, c) // duplicate
		}
	}
	return b
}

// fillLanes stamps K independent random value assignments over one pattern:
// lane l of the batch and scalar matrix l receive bit-identical values.
func fillLanes(rng *rand.Rand, sym *Symbolic, k int) (*BatchMatrix[float64], []*BatchMatrix[float64]) {
	bm := NewBatchMatrix[float64](sym, k)
	ms := make([]*BatchMatrix[float64], k)
	bv := bm.Values()
	for l := range ms {
		ms[l] = NewMatrix[float64](sym)
		sv := ms[l].Values()
		for t := 0; t < sym.NNZ(); t++ {
			sv[t] = rng.NormFloat64()
		}
		for i := 0; i < sym.N(); i++ {
			if rng.Intn(8) > 0 {
				sv[sym.diag[i]] += 3 // keep most pivots comfortably away from zero
			}
		}
		for t := 0; t < sym.NNZ(); t++ {
			bv[t*k+l] = sv[t]
		}
	}
	return bm, ms
}

// checkLockstepEquivalence factors and solves the batch and its K scalar
// references and requires bit-identical factors, pivots, solutions and error
// outcomes lane by lane — the lane determinism contract.
func checkLockstepEquivalence(t *testing.T, sym *Symbolic, bm *BatchMatrix[float64], ms []*BatchMatrix[float64], rng *rand.Rand) {
	t.Helper()
	k := bm.Lanes()
	rhs := make([]float64, sym.N()*k)
	scalarRHS := make([][]float64, k)
	for l := 0; l < k; l++ {
		scalarRHS[l] = make([]float64, sym.N())
		for i := 0; i < sym.N(); i++ {
			v := rng.NormFloat64()
			scalarRHS[l][i] = v
			rhs[i*k+l] = v
		}
	}
	berrs := bm.Factorize()
	for l := 0; l < k; l++ {
		serr := ms[l].Factorize()[0]
		if (serr == nil) != (berrs[l] == nil) {
			t.Fatalf("lane %d: factorize error mismatch: scalar %v, batch %v", l, serr, berrs[l])
		}
		if serr != nil {
			if !errors.Is(berrs[l], ErrSingular) {
				t.Fatalf("lane %d: batch error %v does not wrap ErrSingular", l, berrs[l])
			}
			continue
		}
		for t2 := 0; t2 < sym.NNZ(); t2++ {
			if sb, bb := ms[l].vals[t2], bm.vals[t2*k+l]; math.Float64bits(sb) != math.Float64bits(bb) {
				t.Fatalf("lane %d: factor entry %d differs: scalar %v, batch %v", l, t2, sb, bb)
			}
		}
		for i := 0; i < sym.N(); i++ {
			if si, bi := ms[l].inv[i], bm.inv[i*k+l]; math.Float64bits(si) != math.Float64bits(bi) {
				t.Fatalf("lane %d: pivot reciprocal %d differs: scalar %v, batch %v", l, i, si, bi)
			}
		}
	}
	serrs := bm.Solve(rhs)
	for l := 0; l < k; l++ {
		if berrs[l] != nil {
			if serrs[l] == nil {
				t.Fatalf("lane %d: solve succeeded after failed factorization", l)
			}
			continue
		}
		if err := ms[l].Solve(scalarRHS[l])[0]; err != nil {
			t.Fatalf("lane %d: scalar solve: %v", l, err)
		}
		for i := 0; i < sym.N(); i++ {
			if sx, bx := scalarRHS[l][i], rhs[i*k+l]; math.Float64bits(sx) != math.Float64bits(bx) {
				t.Fatalf("lane %d: solution[%d] differs: scalar %v, batch %v", l, i, sx, bx)
			}
		}
	}
}

// Lockstep refactorization must be bit-identical to K independent scalar
// refactorizations across random MNA-like patterns — including lanes that hit
// singular pivot sequences while their neighbors stay healthy.
func TestLockstepMatchesScalarRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(24)
		sym, err := randPattern(rng, n, 3*n).Analyze()
		if err != nil {
			t.Fatalf("analyze n=%d: %v", n, err)
		}
		k := 1 + rng.Intn(8)
		bm, ms := fillLanes(rng, sym, k)
		if trial%4 == 0 && n > 2 {
			// Poison one lane with an exactly zero pivot row to exercise
			// failed-lane isolation.
			lane := rng.Intn(k)
			row := sym.rowPerm[rng.Intn(n)]
			for j := sym.rowPtr[row]; j < sym.rowPtr[row+1]; j++ {
				ms[lane].vals[j] = 0
				bm.vals[j*k+lane] = 0
			}
		}
		checkLockstepEquivalence(t, sym, bm, ms, rand.New(rand.NewSource(int64(trial))))
	}
}

// A fully dense row (and column) forces maximal fill through the min-degree
// order; the lockstep kernel must still track the scalar one bit for bit.
func TestLockstepDenseRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 16
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i)
		b.Add(0, i) // dense row
		b.Add(i, 0) // dense column
		b.Add(i, (i+1)%n)
	}
	sym, err := b.Analyze()
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	bm, ms := fillLanes(rng, sym, 4)
	checkLockstepEquivalence(t, sym, bm, ms, rng)
}

// A fully dense matrix: every entry stamped, maximal duplicate collapsing.
func TestLockstepFullyDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 10
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Add(i, j)
			b.Add(i, j) // duplicates must collapse
		}
	}
	sym, err := b.Analyze()
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if sym.stamped != n*n {
		t.Fatalf("duplicate entries not collapsed: stamped %d, want %d", sym.stamped, n*n)
	}
	bm, ms := fillLanes(rng, sym, 8)
	checkLockstepEquivalence(t, sym, bm, ms, rng)
}

// An empty row has no structural pivot: Analyze must refuse with
// ErrStructural rather than hand the numeric phase a hole.
func TestEmptyRowStructural(t *testing.T) {
	b := NewBuilder(4)
	b.Add(0, 0)
	b.Add(1, 1)
	b.Add(3, 3)
	// Row 2 left empty.
	if _, err := b.Analyze(); !errors.Is(err, ErrStructural) {
		t.Fatalf("empty row: got %v, want ErrStructural", err)
	}
}

// Unused lanes (zero values, e.g. the tail of a partial sample group) must be
// flagged singular without disturbing live lanes.
func TestLockstepZeroLaneIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sym, err := randPattern(rng, 12, 30).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	bm, ms := fillLanes(rng, sym, k)
	for t2 := 0; t2 < sym.NNZ(); t2++ {
		bm.vals[t2*k+2] = 0 // lane 2 left unstamped
	}
	errs := bm.Factorize()
	if !errors.Is(errs[2], ErrSingular) {
		t.Fatalf("zero lane: got %v, want ErrSingular", errs[2])
	}
	for _, l := range []int{0, 1, 3} {
		if errs[l] != nil {
			t.Fatalf("live lane %d poisoned by zero lane: %v", l, errs[l])
		}
		if err := ms[l].Factorize()[0]; err != nil {
			t.Fatal(err)
		}
		for t2 := 0; t2 < sym.NNZ(); t2++ {
			if math.Float64bits(ms[l].vals[t2]) != math.Float64bits(bm.vals[t2*k+l]) {
				t.Fatalf("lane %d factor diverged next to a dead lane", l)
			}
		}
	}
}

// Complex lanes (the AC path) follow the same contract.
func TestLockstepComplexMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sym, err := randPattern(rng, 14, 40).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	bm := NewBatchMatrix[complex128](sym, k)
	ms := make([]*BatchMatrix[complex128], k)
	for l := range ms {
		ms[l] = NewMatrix[complex128](sym)
		for t2 := 0; t2 < sym.NNZ(); t2++ {
			v := complex(rng.NormFloat64()+2, rng.NormFloat64())
			ms[l].vals[t2] = v
			bm.vals[t2*k+l] = v
		}
	}
	rhs := make([]complex128, sym.N()*k)
	srhs := make([][]complex128, k)
	for l := 0; l < k; l++ {
		srhs[l] = make([]complex128, sym.N())
		for i := range srhs[l] {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			srhs[l][i] = v
			rhs[i*k+l] = v
		}
	}
	for l, err := range bm.FactorSolve(rhs) {
		if err != nil {
			t.Fatalf("lane %d: %v", l, err)
		}
		if err := ms[l].FactorSolve(srhs[l])[0]; err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sym.N(); i++ {
			sx, bx := srhs[l][i], rhs[i*k+l]
			if math.Float64bits(real(sx)) != math.Float64bits(real(bx)) ||
				math.Float64bits(imag(sx)) != math.Float64bits(imag(bx)) {
				t.Fatalf("lane %d: complex solution[%d] differs: %v vs %v", l, i, sx, bx)
			}
		}
	}
}

// FuzzBuilderAnalyzeLockstep drives Builder → Analyze with arbitrary entry
// streams (duplicates, empty rows, dense rows, any shape the bytes spell out)
// and, whenever the pattern is structurally sound, checks the lockstep kernel
// against the scalar one lane by lane, the scalar and lockstep kernels,
// real and complex, against the scatter/gather oracle on adversarial lanes,
// and the reach-limited substitution against the full Solve on every
// component — under each K=8 kernel path, the AVX2 one also against the Go
// one directly. The seed corpus covers the pathologies the MNA engine is known
// to produce.
func FuzzBuilderAnalyzeLockstep(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 1, 2, 2, 3, 3, 0, 3, 3, 0}) // near-diagonal + corners
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2})       // duplicate entries
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})       // cyclic, zero diagonal
	f.Add([]byte{2, 0, 0})                               // empty row 1
	f.Add([]byte{6, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5}) // dense row 0 only
	f.Add([]byte{1, 0, 0})                               // 1×1
	f.Add([]byte{8, 7, 7, 7, 0, 0, 7, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		b := NewBuilder(n)
		seed := int64(0)
		for _, by := range data {
			seed = seed*131 + int64(by)
		}
		for i := 1; i+1 < len(data); i += 2 {
			b.Add(int(data[i])%n, int(data[i+1])%n)
		}
		sym, err := b.Analyze()
		if err != nil {
			if !errors.Is(err, ErrStructural) {
				t.Fatalf("analyze returned non-structural error: %v", err)
			}
			return
		}
		if sym.NNZ() < sym.stamped {
			t.Fatalf("fill pattern smaller than stamped pattern: %d < %d", sym.NNZ(), sym.stamped)
		}
		for _, simd := range kernelPaths() {
			withKernel(simd, func() {
				rng := rand.New(rand.NewSource(seed))
				k := 1 + rng.Intn(8)
				bm, ms := fillLanes(rng, sym, k)
				checkLockstepEquivalence(t, sym, bm, ms, rng)
				for _, k := range []int{k, kernelWidth} {
					checkAgainstOracle[float64](t, rng, sym, k)
					checkAgainstOracle[complex128](t, rng, sym, k)
					checkReachAgainstSolve[float64](t, rng, sym, k)
					checkReachAgainstSolve[complex128](t, rng, sym, k)
				}
				if simd {
					rr := make([]float64, sym.N()*kernelWidth)
					rc := make([]complex128, sym.N()*kernelWidth)
					for i := range rr {
						rr[i] = kernelFloat(rng)
						rc[i] = complex(kernelFloat(rng), kernelFloat(rng))
					}
					compareKernels(t, sym, kernelBatch[float64](rng, sym), rr, sym.all)
					compareKernels(t, sym, kernelBatch[complex128](rng, sym), rc, sym.all)
				}
			})
		}
	})
}

// benchPattern builds an MNA-like banded-plus-coupling pattern of size n.
func benchPattern(b *testing.B, n int) *Symbolic {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	bd := NewBuilder(n)
	for i := 0; i < n; i++ {
		bd.Add(i, i)
		for d := 1; d <= 2; d++ {
			bd.Add(i, (i+d)%n)
			bd.Add((i+d)%n, i)
		}
	}
	for e := 0; e < 2*n; e++ {
		bd.Add(rng.Intn(n), rng.Intn(n))
	}
	sym, err := bd.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	return sym
}

// benchKernels lists the kernel variants a benchmark runs at K lanes: one,
// except at K=8, which runs the generic Go loop and, where the CPU has it,
// the AVX2 kernel as separate sub-benchmarks.
func benchKernels(k int) []string {
	if k != kernelWidth {
		return []string{""}
	}
	if cpuAVX2 {
		return []string{"/go", "/avx2"}
	}
	return []string{"/go"}
}

// benchLockstep times FactorSolve of one K-lane batch over sym, restoring
// the values and right-hand sides each round, and reports ns per lane.
func benchLockstep[T Scalar](b *testing.B, sym *Symbolic, k int, base []T) {
	bm := NewBatchMatrix[T](sym, k)
	rhs := make([]T, sym.N()*k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(bm.vals, base)
		for j := range rhs {
			rhs[j] = 1
		}
		for _, err := range bm.FactorSolve(rhs) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/lane")
}

// BenchmarkLockstepFactorSolve measures the per-sample cost of the lockstep
// kernel at the pattern sizes of the registered spice scenarios (19 unknowns:
// folded-cascode testbench; 64: the post-layout-scale target) and K=1/4/8
// lanes, K=8 in its Go and AVX2 forms. Reported time is per factorize+solve
// of the whole batch; ns/lane is the per-sample amortized cost the yield
// loop sees.
func BenchmarkLockstepFactorSolve(b *testing.B) {
	for _, n := range []int{19, 64} {
		sym := benchPattern(b, n)
		for _, k := range []int{1, 4, 8} {
			for _, variant := range benchKernels(k) {
				b.Run(benchName(n, k)+variant, func(b *testing.B) {
					rng := rand.New(rand.NewSource(3))
					base := make([]float64, (sym.NNZ()+1)*k)
					for i := range base {
						base[i] = rng.NormFloat64() + 4
					}
					withKernel(variant == "/avx2", func() { benchLockstep(b, sym, k, base) })
				})
			}
		}
	}
}

func benchName(n, k int) string {
	return fmt.Sprintf("n=%d/k=%d", n, k)
}

// BenchmarkLockstepFactorSolveComplex is the complex128 twin — the AC
// sweep's per-frequency primitive, where most of a spice sample's solver
// time goes.
func BenchmarkLockstepFactorSolveComplex(b *testing.B) {
	for _, n := range []int{19, 64} {
		sym := benchPattern(b, n)
		for _, k := range []int{1, 4, 8} {
			for _, variant := range benchKernels(k) {
				b.Run(benchName(n, k)+variant, func(b *testing.B) {
					rng := rand.New(rand.NewSource(3))
					base := make([]complex128, (sym.NNZ()+1)*k)
					for i := range base {
						base[i] = complex(rng.NormFloat64()+4, rng.NormFloat64())
					}
					withKernel(variant == "/avx2", func() { benchLockstep(b, sym, k, base) })
				})
			}
		}
	}
}
