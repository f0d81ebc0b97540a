package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// This file keeps the scatter/gather elimination the kernels ran before the
// in-place elimination schedule, as a test oracle: every row is scattered
// into a dense work row, eliminated there by walking the upper part of each
// pivot row through cols[u], and gathered back. The production kernels must
// reproduce its factors, pivot reciprocals and per-lane errors bit for bit.

// oracleBadPivot and oracleInfValue are the generic pivot checks of the
// scatter/gather kernels (v == 0 || IsNaN, and IsInf, with math/cmplx's
// "no NaN verdict when a part is Inf" rule).
func oracleBadPivot[T Scalar](d T) bool {
	switch v := any(d).(type) {
	case float64:
		return v == 0 || v != v
	case complex128:
		re, im := real(v), imag(v)
		if v == 0 {
			return true
		}
		if math.IsInf(re, 0) || math.IsInf(im, 0) {
			return false
		}
		return re != re || im != im
	}
	return false
}

func oracleInfValue[T Scalar](r T) bool {
	switch v := any(r).(type) {
	case float64:
		return math.IsInf(v, 0)
	case complex128:
		return math.IsInf(real(v), 0) || math.IsInf(imag(v), 0)
	}
	return false
}

// oracleFactorizeScalar is the scalar scatter/gather Factorize over vals
// (len NNZ()+1), writing the pivot reciprocals into inv. Like the scalar
// kernel it stops at the first failing row.
func oracleFactorizeScalar[T Scalar](s *Symbolic, vals, inv []T) error {
	w := make([]T, s.n)
	cols := s.cols
	for i := 0; i < s.n; i++ {
		start, end, dp := s.rowPtr[i], s.rowPtr[i+1], s.diag[i]
		for t := start; t < end; t++ {
			w[cols[t]] = vals[t]
		}
		for t := start; t < dp; t++ {
			k := cols[t]
			lik := w[k] * inv[k]
			w[k] = lik
			if lik == 0 {
				continue
			}
			for u := s.diag[k] + 1; u < s.rowPtr[k+1]; u++ {
				w[cols[u]] -= lik * vals[u]
			}
		}
		for t := start; t < end; t++ {
			vals[t] = w[cols[t]]
		}
		d := vals[dp]
		if oracleBadPivot(d) {
			return fmt.Errorf("%w: zero pivot at permuted row %d", ErrSingular, i)
		}
		r := T(1) / d
		if oracleInfValue(r) {
			return fmt.Errorf("%w: subnormal pivot at permuted row %d", ErrSingular, i)
		}
		inv[i] = r
	}
	return nil
}

// oracleFactorizeBatch is the K-lane scatter/gather Factorize over SoA
// values, with the per-lane zero-multiplier guard and failed-lane
// bookkeeping of the lockstep kernel.
func oracleFactorizeBatch[T Scalar](s *Symbolic, k int, vals, inv []T) []error {
	w := make([]T, s.n*k)
	errs := make([]error, k)
	cols := s.cols
	for i := 0; i < s.n; i++ {
		start, end, dp := s.rowPtr[i], s.rowPtr[i+1], s.diag[i]
		for t := start; t < end; t++ {
			copy(w[cols[t]*k:cols[t]*k+k], vals[t*k:t*k+k])
		}
		for t := start; t < dp; t++ {
			c := cols[t]
			for l := 0; l < k; l++ {
				w[c*k+l] *= inv[c*k+l]
			}
			for u := s.diag[c] + 1; u < s.rowPtr[c+1]; u++ {
				cu := cols[u]
				for l := 0; l < k; l++ {
					if w[c*k+l] != 0 {
						w[cu*k+l] -= w[c*k+l] * vals[u*k+l]
					}
				}
			}
		}
		for t := start; t < end; t++ {
			copy(vals[t*k:t*k+k], w[cols[t]*k:cols[t]*k+k])
		}
		for l := 0; l < k; l++ {
			inv[i*k+l] = 0
			if errs[l] != nil {
				continue
			}
			d := vals[dp*k+l]
			if oracleBadPivot(d) {
				errs[l] = fmt.Errorf("%w: zero pivot at permuted row %d", ErrSingular, i)
				continue
			}
			r := T(1) / d
			if oracleInfValue(r) {
				errs[l] = fmt.Errorf("%w: subnormal pivot at permuted row %d", ErrSingular, i)
				continue
			}
			inv[i*k+l] = r
		}
	}
	return errs
}

// laneKind selects how adversarial one lane's values are.
type laneKind int

const (
	laneClean     laneKind = iota // random, diagonal-dominant-ish
	laneZeros                     // many ±0 entries: zero multipliers, -0 arithmetic
	laneSpecial                   // a few Inf/NaN entries
	laneSingular                  // one exactly zero row: a zero pivot
	laneSubnormal                 // one row reduced to a subnormal pivot
	numLaneKinds
)

// oracleFloat draws one adversarial value of the given lane kind.
func oracleFloat(rng *rand.Rand, kind laneKind) float64 {
	switch kind {
	case laneZeros:
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
	case laneSpecial:
		switch rng.Intn(40) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		case 2:
			return math.NaN()
		}
	}
	return rng.NormFloat64()
}

// oracleValues fills lane l of the SoA value array vals (K lanes) with one
// adversarial assignment of the given kind.
func oracleValues[T Scalar](rng *rand.Rand, s *Symbolic, vals []T, k, l int, kind laneKind) {
	for t := 0; t < s.NNZ(); t++ {
		vals[t*k+l] = fromParts[T](oracleFloat(rng, kind), oracleFloat(rng, kind))
	}
	for i := 0; i < s.n; i++ {
		if rng.Intn(6) > 0 {
			vals[s.diag[i]*k+l] += 3
		}
	}
	if kind == laneSingular || kind == laneSubnormal {
		// Zero one row; the subnormal variant keeps a tiny diagonal whose
		// reciprocal overflows (no multipliers reach it: the row's
		// below-diagonal entries are zero).
		i := rng.Intn(s.n)
		for t := s.rowPtr[i]; t < s.rowPtr[i+1]; t++ {
			vals[t*k+l] = 0
		}
		if kind == laneSubnormal {
			vals[s.diag[i]*k+l] = fromParts[T](4e-320, 0)
		}
	}
}

// fromParts returns complex(re, im) as a T; a real T takes re alone.
func fromParts[T Scalar](re, im float64) T {
	var z T
	if _, ok := any(z).(complex128); ok {
		return any(complex(re, im)).(T)
	}
	return any(re).(T)
}

// sameBits reports whether two scalars are bit-identical, signed zeros
// included. NaNs compare equal to each other whatever their payloads: when
// both operands of an x86 add or multiply are NaN the result carries the
// first operand's payload, and the compiler is free to commute those
// operands, so the payload is not a function of the source expression.
func sameBits[T Scalar](a, b T) bool {
	switch x := any(a).(type) {
	case float64:
		return sameFloat(x, any(b).(float64))
	case complex128:
		y := any(b).(complex128)
		return sameFloat(real(x), real(y)) && sameFloat(imag(x), imag(y))
	}
	return false
}

func sameFloat(a, b float64) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// checkAgainstOracle factors one random adversarial batch of K lanes with
// the BatchMatrix kernel, each lane with a one-lane matrix, and both with the
// scatter/gather oracles, and requires bit-identical factors, reciprocals
// and errors. It returns the oracle's lane errors.
func checkAgainstOracle[T Scalar](t *testing.T, rng *rand.Rand, s *Symbolic, k int) []error {
	t.Helper()
	bm := NewBatchMatrix[T](s, k)
	kinds := make([]laneKind, k)
	for l := range kinds {
		kinds[l] = laneKind(rng.Intn(int(numLaneKinds)))
		oracleValues(rng, s, bm.vals, k, l, kinds[l])
	}
	ovals := append([]T(nil), bm.vals...)
	oinv := make([]T, s.n*k)
	var oerrs []error
	if k == 1 {
		// One lane runs the scalar kernel, which stops at its first bad
		// pivot: the scalar oracle is its reference.
		oerrs = []error{oracleFactorizeScalar(s, ovals, oinv)}
	} else {
		oerrs = oracleFactorizeBatch(s, k, ovals, oinv)
	}
	lanes := make([][]T, k)
	for l := range lanes {
		lanes[l] = make([]T, s.NNZ()+1)
		for t2 := 0; t2 < s.NNZ(); t2++ {
			lanes[l][t2] = bm.vals[t2*k+l]
		}
	}
	berrs := bm.Factorize()
	for l := 0; l < k; l++ {
		if !sameErr(berrs[l], oerrs[l]) {
			t.Fatalf("K=%d lane %d (kind %d): batch error %v, oracle %v", k, l, kinds[l], berrs[l], oerrs[l])
		}
	}
	for i := range ovals {
		if !sameBits(bm.vals[i], ovals[i]) {
			t.Fatalf("K=%d: batch value %d (lane %d) = %v, oracle %v", k, i, i%k, bm.vals[i], ovals[i])
		}
	}
	for i := range oinv {
		if !sameBits(bm.inv[i], oinv[i]) {
			t.Fatalf("K=%d: batch reciprocal %d (lane %d) = %v, oracle %v", k, i, i%k, bm.inv[i], oinv[i])
		}
	}

	// Scalar kernel per lane against the scalar oracle.
	for l := 0; l < k; l++ {
		m := NewMatrix[T](s)
		copy(m.vals, lanes[l])
		svals := append([]T(nil), lanes[l]...)
		sinv := make([]T, s.n)
		oerr := oracleFactorizeScalar(s, svals, sinv)
		err := m.Factorize()[0]
		if !sameErr(err, oerr) {
			t.Fatalf("scalar lane %d (kind %d): error %v, oracle %v", l, kinds[l], err, oerr)
		}
		for i := range svals {
			if !sameBits(m.vals[i], svals[i]) {
				t.Fatalf("scalar lane %d: value %d = %v, oracle %v", l, i, m.vals[i], svals[i])
			}
		}
		if err == nil {
			for i := range sinv {
				if !sameBits(m.inv[i], sinv[i]) {
					t.Fatalf("scalar lane %d: reciprocal %d = %v, oracle %v", l, i, m.inv[i], sinv[i])
				}
			}
		}
	}
	return oerrs
}

// The in-place scheduled kernels reproduce the scatter/gather elimination
// bit for bit on random patterns, for the one-lane kernel and for K = 2, 4,
// 8 (2 is the narrowest generic width, 8 the auto-resolved width, run
// through both the generic loop and the AVX2 kernel), real and complex, with lanes carrying
// zero multipliers, negative zeros, Inf/NaN values and singular or
// subnormal pivots.
func TestKernelsMatchScatterGatherOracle(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		seen := map[string]int{}
		tally := func(kind string, errs []error) {
			for _, err := range errs {
				switch {
				case err == nil:
					seen[kind+" ok"]++
				case strings.Contains(err.Error(), "subnormal pivot"):
					seen[kind+" subnormal"]++
				default:
					seen[kind+" zero"]++
				}
			}
		}
		for trial := 0; trial < 120; trial++ {
			n := 1 + rng.Intn(24)
			s, err := randPattern(rng, n, 3*n).Analyze()
			if err != nil {
				t.Fatalf("analyze n=%d: %v", n, err)
			}
			for _, k := range []int{2, 4, kernelWidth} {
				tally("real", checkAgainstOracle[float64](t, rng, s, k))
				tally("complex", checkAgainstOracle[complex128](t, rng, s, k))
			}
		}
		for _, kind := range []string{"real", "complex"} {
			for _, outcome := range []string{"ok", "zero", "subnormal"} {
				if seen[kind+" "+outcome] == 0 {
					t.Errorf("no %s lane ended %s: the adversarial lanes miss a case (%v)", kind, outcome, seen)
				}
			}
		}
	})
}

// oracleStep is the per-lane pivot step of the scatter/gather kernels.
func oracleStep[T Scalar](d T) (T, error) {
	if oracleBadPivot(d) {
		return 0, errZeroPivot
	}
	r := T(1) / d
	if oracleInfValue(r) {
		return 0, errSubnormalPivot
	}
	return r, nil
}

// checkPivotStep compares the type-specialised pivot step on one value
// with the generic oracle step and, on recipFinite's domain, the inline
// reciprocal with the runtime's complex division.
func checkPivotStep(t *testing.T, re, im float64) {
	t.Helper()
	d := complex(re, im)
	want := complex(1, 0) / d
	finite := !math.IsInf(re, 0) && !math.IsInf(im, 0) && re == re && im == im
	if finite && d != 0 {
		if got := recipFinite(re, im); !sameBits(got, want) {
			t.Fatalf("recipFinite(%v) = %v (%x, %x), 1/d = %v (%x, %x)", d, got,
				math.Float64bits(real(got)), math.Float64bits(imag(got)),
				want, math.Float64bits(real(want)), math.Float64bits(imag(want)))
		}
	}
	cinv, cerrs := []complex128{7}, []error{nil}
	complexPivots([]complex128{d}, cinv, cerrs)
	if wr, werr := oracleStep(d); cerrs[0] != werr || !sameBits(cinv[0], wr) {
		t.Fatalf("complex pivot %v: step gives (%v, %v), oracle (%v, %v)", d, cinv[0], cerrs[0], wr, werr)
	}
	rinv, rerrs := []float64{7}, []error{nil}
	realPivots([]float64{re}, rinv, rerrs)
	if wr, werr := oracleStep(re); rerrs[0] != werr || !sameBits(rinv[0], wr) {
		t.Fatalf("real pivot %v: step gives (%v, %v), oracle (%v, %v)", re, rinv[0], rerrs[0], wr, werr)
	}
}

// The inline Smith reciprocal equals complex(1, 0)/d bit for bit, and the
// type-specialised pivot steps equal the generic per-lane checks, on signed
// zero parts, |re| = |im|, subnormals, values near overflow, Inf/NaN parts
// and a million random values (random bit patterns and normal draws).
func TestPivotStepMatchesDivision(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -3, 1 + 0x1p-52, 1 - 0x1p-53,
		5e-324, -5e-324, 1e-310, -4e-320, 0x1p-1022, -0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64, 1e308, -1.5e308, 0x1p1023, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, re := range specials {
		for _, im := range specials {
			checkPivotStep(t, re, im)
		}
	}
	rng := rand.New(rand.NewSource(13))
	for _, a := range append(specials, 2.5, 1e-200, 7e150) {
		checkPivotStep(t, a, a)
		checkPivotStep(t, a, -a)
		checkPivotStep(t, -a, a)
		checkPivotStep(t, -a, -a)
	}
	for i := 0; i < 1_000_000; i++ {
		if i%2 == 0 {
			checkPivotStep(t, math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()))
		} else {
			checkPivotStep(t, rng.NormFloat64(), rng.NormFloat64())
		}
	}
}

// checkReachAgainstSolve factors one random adversarial batch of K lanes
// and solves it in full, then solves it again restricted to the reach of
// every single component and of a random component subset, with the
// permuted scratch poisoned before each restricted solve so a row outside
// the reach cannot be read stale. Every wanted component of every lane
// that factored must carry Solve's bits, every other component must keep
// its right-hand side value, and the lane errors must be Solve's. A failed
// one-lane matrix leaves b untouched on both paths; a failed lane of a
// wider batch has unspecified slots on both and is only checked for its
// error.
func checkReachAgainstSolve[T Scalar](t *testing.T, rng *rand.Rand, s *Symbolic, k int) {
	t.Helper()
	m := NewBatchMatrix[T](s, k)
	for l := 0; l < k; l++ {
		oracleValues(rng, s, m.vals, k, l, laneKind(rng.Intn(int(numLaneKinds))))
	}
	rhs := make([]T, s.n*k)
	for i := range rhs {
		rhs[i] = fromParts[T](rng.NormFloat64(), rng.NormFloat64())
	}
	ferrs := append([]error(nil), m.Factorize()...)
	full := append([]T(nil), rhs...)
	serrs := append([]error(nil), m.Solve(full)...)
	nan := fromParts[T](math.NaN(), math.NaN())
	check := func(comps []int) {
		t.Helper()
		for i := range m.pb {
			m.pb[i] = nan
		}
		got := append([]T(nil), rhs...)
		errs := m.SolveFor(got, s.Reach(comps...))
		want := map[int]bool{}
		for _, c := range comps {
			want[c] = true
		}
		for l := 0; l < k; l++ {
			if !sameErr(errs[l], serrs[l]) || !sameErr(errs[l], ferrs[l]) {
				t.Fatalf("K=%d lane %d reach %v: error %v, Solve %v, Factorize %v", k, l, comps, errs[l], serrs[l], ferrs[l])
			}
			if ferrs[l] != nil && k > 1 {
				continue
			}
			for c := 0; c < s.n; c++ {
				w := rhs[c*k+l]
				if want[c] && ferrs[l] == nil {
					w = full[c*k+l]
				}
				if !sameBits(got[c*k+l], w) {
					t.Fatalf("K=%d lane %d reach %v: component %d = %v, want %v (wanted %v)", k, l, comps, c, got[c*k+l], w, want[c])
				}
			}
		}
	}
	for c := 0; c < s.n; c++ {
		check([]int{c})
	}
	check(nil)
	var sub []int
	for c := 0; c < s.n; c++ {
		if rng.Intn(3) == 0 {
			sub = append(sub, c)
		}
	}
	check(sub)
}

// The reach-limited substitution equals the full Solve bit for bit on
// every component, at K = 1 (the one-lane kernel), 3 (the generic lane
// loop) and 8 (the auto-resolved width, generic loop and AVX2), real and complex,
// with lanes that fail to factor among those that do.
func TestReachMatchesFullSolve(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 80; trial++ {
			n := 1 + rng.Intn(24)
			s, err := randPattern(rng, n, 3*n).Analyze()
			if err != nil {
				t.Fatalf("analyze n=%d: %v", n, err)
			}
			for _, k := range []int{1, 3, kernelWidth} {
				checkReachAgainstSolve[float64](t, rng, s, k)
				checkReachAgainstSolve[complex128](t, rng, s, k)
			}
		}
	})
}

// A reach is exactly the dependency closure its substitution needs: its
// forward rows, ascending, hold every back row lo…n-1, are closed under the
// L entries of their rows, and hold no row below lo that no reach row
// names — so SolveFor skips every row it can. The empty reach solves
// nothing.
func TestReachIsMinimalClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		s, err := randPattern(rng, n, 2*n).Analyze()
		if err != nil {
			t.Fatalf("analyze n=%d: %v", n, err)
		}
		for c := 0; c < n; c++ {
			r := s.Reach(c)
			if r.lo != s.colPerm[c] || len(r.out) != 1 || r.out[0] != c {
				t.Fatalf("component %d: lo %d out %v, want lo %d out [%d]", c, r.lo, r.out, s.colPerm[c], c)
			}
			in := make([]bool, n)
			for x, i := range r.fwd {
				if x > 0 && i <= r.fwd[x-1] {
					t.Fatalf("component %d: forward rows %v not ascending", c, r.fwd)
				}
				in[i] = true
			}
			named := make([]bool, n)
			for _, i := range r.fwd {
				for t2 := s.rowPtr[i]; t2 < s.diag[i]; t2++ {
					if !in[s.cols[t2]] {
						t.Fatalf("component %d: forward row %d reads row %d outside the reach", c, i, s.cols[t2])
					}
					named[s.cols[t2]] = true
				}
			}
			for i := 0; i < n; i++ {
				if i >= r.lo && !in[i] {
					t.Fatalf("component %d: back row %d missing from the forward rows", c, i)
				}
				if i < r.lo && in[i] && !named[i] {
					t.Fatalf("component %d: forward row %d is in the reach but no reach row reads it", c, i)
				}
			}
		}
		if r := s.Reach(); r.lo != n || len(r.fwd) != 0 || len(r.out) != 0 {
			t.Fatalf("empty reach: lo %d fwd %v out %v", r.lo, r.fwd, r.out)
		}
	}
}
