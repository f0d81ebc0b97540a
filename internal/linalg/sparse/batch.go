package sparse

import (
	"fmt"
)

// BatchMatrix holds K independent value lanes over one shared Symbolic
// pattern in structure-of-arrays layout: the K lane values of pattern entry t
// sit contiguously at vals[t*K : (t+1)*K]. One traversal of the elimination
// schedule (the part of Factorize that is branches, index loads and cache
// misses on the pattern) then drives K numeric eliminations at once, in
// place, one K-lane block per update — the lockstep refactorization that
// amortizes the per-sample cost of Monte-Carlo sweeps sharing one topology.
// K = 1 is the scalar system (NewMatrix): it runs the one-lane kernel. The
// auto-resolved width K = 8 runs the AVX2 kernel where the CPU has it; every
// other K, and K = 8 without AVX2, runs the generic lane loop.
//
// Lane determinism contract: lane l of a K-lane matrix performs exactly the
// floating-point operations, in exactly the order, of the one-lane kernel on
// the same values. Lanes never mix arithmetically — the only cross-lane
// coupling is control flow, and the kernels are written so the per-lane
// operation sequence is independent of the other lanes' values (see the
// zero-multiplier guard in Factorize). A lane of a lockstep batch is
// therefore bit-identical to a one-lane solve of that sample. The one
// difference is after a failure: the one-lane kernel stops at its first bad
// pivot, while a K-lane kernel carries the failed lane to the last row with
// zero reciprocals; either way the failed lane's factors are unusable.
type BatchMatrix[T Scalar] struct {
	sym    *Symbolic
	k      int
	vals   []T // (NNZ()+1)*k; entry t's lanes at [t*k : (t+1)*k]
	inv    []T // pivot reciprocals, n*k
	pb     []T // permuted right-hand sides, n*k
	pivots pivotStep[T]
	errs   []error
	ok     bool

	// zpe caches the per-row zero-pivot error values. Inside the lockstep
	// drivers a retired lane (converged, failed, or a partial group's tail)
	// keeps its zeroed values in the batch, so its factorization "fails" at
	// the first pivot on every remaining iteration and frequency point; the
	// cache keeps that bookkeeping allocation- and formatting-free.
	zpe []error
}

// kernelWidth is the lane count of the AVX2 kernel (kernel_amd64.go), the
// width the engine resolves to by default.
const kernelWidth = 8

// NewBatchMatrix returns a zero K-lane matrix over the analyzed pattern.
func NewBatchMatrix[T Scalar](s *Symbolic, k int) *BatchMatrix[T] {
	if k < 1 {
		panic(fmt.Sprintf("sparse: invalid lane count %d", k))
	}
	return &BatchMatrix[T]{
		sym:    s,
		k:      k,
		vals:   make([]T, (s.NNZ()+1)*k),
		inv:    make([]T, s.n*k),
		pb:     make([]T, s.n*k),
		pivots: pivotStepFor[T](),
		errs:   make([]error, k),
	}
}

// pivotErrs replaces the pivot step's verdicts in the lane errors with the
// row-numbered errors of permuted row i; zero-pivot errors come from the
// per-row cache.
func (m *BatchMatrix[T]) pivotErrs(i int) {
	for l, err := range m.errs {
		switch err {
		case errZeroPivot:
			if m.zpe == nil {
				m.zpe = make([]error, m.sym.n)
			}
			if m.zpe[i] == nil {
				m.zpe[i] = pivotErr(err, i)
			}
			m.errs[l] = m.zpe[i]
		case errSubnormalPivot:
			m.errs[l] = pivotErr(err, i)
		}
	}
}

// Symbolic returns the shared pattern.
func (m *BatchMatrix[T]) Symbolic() *Symbolic { return m.sym }

// Lanes returns K, the number of value lanes.
func (m *BatchMatrix[T]) Lanes() int { return m.k }

// Values exposes the SoA value array for direct stamping: entry t of the
// pattern, lane l, lives at Values()[t*Lanes()+l]. The last Lanes() elements
// are the per-lane write-off slots.
func (m *BatchMatrix[T]) Values() []T { return m.vals }

// Factorize runs the numeric elimination of all K lanes in lockstep, in
// place over the precomputed elimination schedule (Symbolic.upd), and
// returns the per-lane outcome: errs[l] is
// nil when lane l factored, or wraps ErrSingular when its pivot sequence
// broke down. A failed lane never poisons the others — each lane's
// arithmetic is fully independent — and its factors are simply unusable
// (Solve reports the same per-lane error). The returned slice is reused by
// the next Factorize call.
func (m *BatchMatrix[T]) Factorize() []error {
	m.ok = true
	if m.k == 1 {
		m.factorize1()
		return m.errs
	}
	// The auto-resolved width runs the AVX2 kernel where the CPU has it;
	// it keeps the generic loop's per-lane operation sequence.
	if m.k == kernelWidth && m.factorize8SIMD() {
		return m.errs
	}
	s, k := m.sym, m.k
	vals, inv, cols, upd := m.vals, m.inv, s.cols, s.upd
	for l := 0; l < k; l++ {
		m.errs[l] = nil
	}
	p := 0
	for i := 0; i < s.n; i++ {
		dp := s.diag[i]
		for t := s.rowPtr[i]; t < dp; t++ {
			c := cols[t]
			lo := s.diag[c] + 1
			dst := upd[p : p+s.rowPtr[c+1]-lo]
			p += len(dst)
			lt := vals[t*k : t*k+k : t*k+k]
			ic := inv[c*k : c*k+k : c*k+k]
			// Per-lane multiplier; the one-lane kernel skips the update row
			// when the multiplier is exactly zero, and so must every lane
			// here (bit-identity: v -= 0*u can still flip the sign of a
			// negative zero). When no lane needs the skip — the common case
			// once the ladder leaves degenerate stampings behind — the
			// unguarded block below keeps the inner loop branch-free.
			allNZ := true
			for l := 0; l < k; l++ {
				lt[l] *= ic[l]
				if lt[l] == 0 {
					allNZ = false
				}
			}
			if allNZ {
				for j, d := range dst {
					vd := vals[d*k : d*k+k : d*k+k]
					vu := vals[(lo+j)*k : (lo+j)*k+k : (lo+j)*k+k]
					for l := 0; l < k; l++ {
						vd[l] -= lt[l] * vu[l]
					}
				}
				continue
			}
			for j, d := range dst {
				vd := vals[d*k : d*k+k : d*k+k]
				vu := vals[(lo+j)*k : (lo+j)*k+k : (lo+j)*k+k]
				for l := 0; l < k; l++ {
					if lt[l] != 0 {
						vd[l] -= lt[l] * vu[l]
					}
				}
			}
		}
		if m.pivots(vals[dp*k:dp*k+k], inv[i*k:i*k+k], m.errs) {
			m.pivotErrs(i)
		}
	}
	return m.errs
}

// Solve overwrites the K right-hand sides in b (SoA layout: component i of
// lane l at b[i*Lanes()+l], original index order) with the per-lane
// solutions, in lockstep. The returned per-lane errors mirror the last
// Factorize: a lane that failed to factor reports its factorization error
// and its slots in b are unspecified. The slice is shared with Factorize.
// A one-lane matrix whose factorization failed leaves b untouched.
func (m *BatchMatrix[T]) Solve(b []T) []error { return m.SolveFor(b, m.sym.all) }

// SolveFor is Solve restricted to the reach r (Symbolic.Reach): it computes
// only the substitution rows the reach's components depend on and writes
// back only those components, each bit-identical to its value under Solve.
// The other components of b are left as they were. The per-lane errors are
// Solve's.
func (m *BatchMatrix[T]) SolveFor(b []T, r *Reach) []error {
	s, k := m.sym, m.k
	n := s.n
	if !m.ok {
		for l := 0; l < k; l++ {
			m.errs[l] = errNotFactored
		}
		return m.errs
	}
	if len(b) < n*k {
		panic(fmt.Sprintf("sparse: batch rhs length %d < %d", len(b), n*k))
	}
	if k == 1 {
		if m.errs[0] == nil {
			m.solve1(b, r)
		}
		return m.errs
	}
	if k == kernelWidth && m.solve8SIMD(b, r) {
		return m.errs
	}
	vals, cols, pb, inv := m.vals, s.cols, m.pb, m.inv
	for _, i := range r.fwd {
		copy(pb[i*k:i*k+k], b[s.rowInv[i]*k:s.rowInv[i]*k+k])
	}
	for _, i := range r.fwd {
		pi := pb[i*k : i*k+k : i*k+k]
		for t := s.rowPtr[i]; t < s.diag[i]; t++ {
			c := cols[t]
			vt := vals[t*k : t*k+k : t*k+k]
			pc := pb[c*k : c*k+k : c*k+k]
			for l := 0; l < k; l++ {
				pi[l] -= vt[l] * pc[l]
			}
		}
	}
	for i := n - 1; i >= r.lo; i-- {
		pi := pb[i*k : i*k+k : i*k+k]
		for t := s.diag[i] + 1; t < s.rowPtr[i+1]; t++ {
			c := cols[t]
			vt := vals[t*k : t*k+k : t*k+k]
			pc := pb[c*k : c*k+k : c*k+k]
			for l := 0; l < k; l++ {
				pi[l] -= vt[l] * pc[l]
			}
		}
		ri := inv[i*k : i*k+k : i*k+k]
		for l := 0; l < k; l++ {
			pi[l] *= ri[l]
		}
	}
	for _, c := range r.out {
		copy(b[c*k:c*k+k], pb[s.colPerm[c]*k:s.colPerm[c]*k+k])
	}
	return m.errs
}

// FactorSolve factors all lanes and solves the SoA right-hand sides in b —
// the per-Newton-iteration primitive of the lockstep path.
func (m *BatchMatrix[T]) FactorSolve(b []T) []error {
	m.Factorize()
	return m.Solve(b)
}
