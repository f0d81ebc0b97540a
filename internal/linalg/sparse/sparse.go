// Package sparse implements a static-pattern sparse LU solver for the MNA
// circuit engine. The cost model of circuit simulation is peculiar: one
// topology is solved thousands of times (every Newton iteration, every AC
// frequency point, every Monte-Carlo sample of one design) while the nonzero
// pattern of the matrix never changes. The package therefore splits the
// solve into
//
//   - a one-time symbolic analysis (Builder → Analyze): a maximum transversal
//     puts a structurally nonzero entry on every diagonal position (MNA
//     branch rows carry a zero diagonal), a minimum-degree/Markowitz
//     heuristic orders the elimination to limit fill-in, and the fill
//     pattern of L+U under that fixed order is precomputed; and
//   - a numeric refactorization (BatchMatrix.Factorize) that runs row-wise
//     Doolittle elimination in place over a precomputed elimination schedule
//     with no pivot search and no allocation, followed by Solve — for one
//     value lane (a scalar system) or K lanes in lockstep.
//
// Devices stamp through direct indices into the value array (Symbolic.Index,
// resolved once per engine), so assembling a new matrix is a handful of
// pointer-free slice writes. Real (float64) and complex (complex128) systems
// share one generic implementation and one symbolic analysis, which is what
// lets the AC sweep's Y = G + jωC reuse the DC Jacobian's pattern.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrStructural reports a pattern with no perfect row/column matching: the
// matrix is singular for every numeric value assignment, so no elimination
// order can factor it.
var ErrStructural = errors.New("sparse: structurally singular pattern")

// StructuralError is the ErrStructural of one pattern: Col is the column
// the maximum transversal could match to no row, in original coordinates,
// so the caller can name the unknown that has no pivot.
type StructuralError struct{ Col int }

func (e *StructuralError) Error() string {
	return fmt.Sprintf("%v: no pivot row available for column %d", ErrStructural, e.Col)
}

// Is makes errors.Is(err, ErrStructural) hold.
func (e *StructuralError) Is(target error) bool { return target == ErrStructural }

// ErrSingular reports a zero (or unusably small) pivot during numeric
// factorization under the precomputed static order.
var ErrSingular = errors.New("sparse: singular matrix")

// errNotFactored reports Solve before a successful Factorize.
var errNotFactored = errors.New("sparse: matrix not factorized")

// Builder accumulates the structural nonzero pattern of an n×n system.
type Builder struct {
	n    int
	rows []map[int]struct{}
}

// NewBuilder returns an empty pattern builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("sparse: invalid size %d", n))
	}
	b := &Builder{n: n, rows: make([]map[int]struct{}, n)}
	for i := range b.rows {
		b.rows[i] = map[int]struct{}{}
	}
	return b
}

// Add records a structurally nonzero entry. Negative indices are ignored —
// the MNA ground-row convention, so device pattern enumeration can reuse the
// same row-mapping helpers as stamping.
func (b *Builder) Add(r, c int) {
	if r < 0 || c < 0 {
		return
	}
	if r >= b.n || c >= b.n {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %d×%d pattern", r, c, b.n, b.n))
	}
	b.rows[r][c] = struct{}{}
}

// Symbolic is the one-time analysis of a pattern: the row/column
// permutations chosen by matching and minimum-degree ordering, and the CSR
// fill pattern of L+U under that order. It is immutable after Analyze; any
// number of matrices (real or complex, any lane count) can share one
// Symbolic.
type Symbolic struct {
	n int

	rowPerm []int // original row r sits at permuted row rowPerm[r]
	colPerm []int // original col c sits at permuted col colPerm[c]
	rowInv  []int // permuted row i holds original row rowInv[i]

	// L+U pattern in permuted coordinates, rows in CSR with ascending
	// columns; diag[i] is the absolute position of the diagonal of row i.
	rowPtr []int
	cols   []int
	diag   []int

	// upd is the elimination schedule: the value positions the numeric
	// factorization updates, in order. Walking the rows in order, every
	// below-diagonal entry t of row i (pivot row k = cols[t]) owns the next
	// rowPtr[k+1]-diag[k]-1 slots, one per upper entry u of row k: slot j
	// holds the position in row i of column cols[diag[k]+1+j]. The update is
	// vals[upd[p]] -= vals[t]·vals[u] — no dense work row, no column lookup.
	upd []int

	stamped int // entries in the original pattern (pre-fill)

	all *Reach // the reach of every component: the full substitution
}

// Analyze runs the symbolic phase: maximum transversal, minimum-degree
// ordering and symbolic fill-in. It returns a *StructuralError when the
// pattern admits no structurally nonzero diagonal.
func (b *Builder) Analyze() (*Symbolic, error) {
	n := b.n
	// Deterministic sorted copies of the row patterns (the builder's sets
	// are maps).
	rows := make([][]int, n)
	stamped := 0
	for r, set := range b.rows {
		cs := make([]int, 0, len(set))
		for c := range set {
			cs = append(cs, c)
		}
		sort.Ints(cs)
		rows[r] = cs
		stamped += len(cs)
	}

	colOfRow, err := maximumTransversal(n, rows)
	if err != nil {
		return nil, err
	}
	order := minDegreeOrder(n, rows, colOfRow)

	pos := make([]int, n) // column c is eliminated at position pos[c]
	for k, v := range order {
		pos[v] = k
	}
	s := &Symbolic{
		n:       n,
		rowPerm: make([]int, n),
		colPerm: make([]int, n),
		rowInv:  make([]int, n),
		stamped: stamped,
	}
	for r := 0; r < n; r++ {
		s.rowPerm[r] = pos[colOfRow[r]]
		s.rowInv[s.rowPerm[r]] = r
	}
	for c := 0; c < n; c++ {
		s.colPerm[c] = pos[c]
	}
	s.symbolicFill(rows)
	every := make([]int, n)
	for i := range every {
		every[i] = i
	}
	s.all = &Reach{fwd: every, out: every}
	return s, nil
}

// maximumTransversal matches every column to a distinct row holding a
// structural nonzero in it (MC21-style augmenting paths), so the permuted
// matrix has a fully nonzero diagonal. colOfRow[r] is the column row r
// pivots for.
func maximumTransversal(n int, rows [][]int) ([]int, error) {
	// Column → candidate rows adjacency.
	colRows := make([][]int, n)
	for r, cs := range rows {
		for _, c := range cs {
			colRows[c] = append(colRows[c], r)
		}
	}
	colOfRow := make([]int, n)
	rowOfCol := make([]int, n)
	for i := range colOfRow {
		colOfRow[i] = -1
		rowOfCol[i] = -1
	}
	// Cheap pass: keep rows with a structural diagonal on it. MNA node rows
	// all have one (gmin guarantees it); only branch rows need reassignment,
	// and starting from the diagonal keeps the permutation near-symmetric,
	// which the min-degree heuristic rewards with less fill.
	for r, cs := range rows {
		for _, c := range cs {
			if c == r {
				colOfRow[r] = r
				rowOfCol[r] = r
				break
			}
		}
	}
	seen := make([]bool, n)
	var augment func(c int) bool
	augment = func(c int) bool {
		// Free rows first: stealing a matched row only when no free row
		// exists keeps augmenting paths short. That is a numerical property,
		// not just speed: an MNA voltage-source branch column then always
		// resolves through the source's own ±1 couplings (a two-cycle with
		// its node), and never re-matches node rows onto device-block
		// entries that are structurally present but numerically zero (a
		// MOSFET gate row's drain coupling, say), which would put a zero
		// pivot on the diagonal of the unpivoted factorization.
		for _, r := range colRows[c] {
			if !seen[r] && colOfRow[r] == -1 {
				seen[r] = true
				colOfRow[r] = c
				rowOfCol[c] = r
				return true
			}
		}
		for _, r := range colRows[c] {
			if seen[r] {
				continue
			}
			seen[r] = true
			if augment(colOfRow[r]) {
				colOfRow[r] = c
				rowOfCol[c] = r
				return true
			}
		}
		return false
	}
	for c := 0; c < n; c++ {
		if rowOfCol[c] != -1 {
			continue
		}
		for i := range seen {
			seen[i] = false
		}
		if !augment(c) {
			return nil, &StructuralError{Col: c}
		}
	}
	return colOfRow, nil
}

// minDegreeOrder computes a fill-reducing elimination order with a greedy
// minimum-degree heuristic (the symmetric specialization of Markowitz
// pivoting) on the symmetrized pattern of the row-matched matrix. Ties break
// toward the smallest index, keeping the order deterministic.
func minDegreeOrder(n int, rows [][]int, colOfRow []int) []int {
	adj := make([]map[int]struct{}, n)
	for i := range adj {
		adj[i] = map[int]struct{}{}
	}
	for r, cs := range rows {
		i := colOfRow[r] // permuted row index of original row r
		for _, c := range cs {
			if c != i {
				adj[i][c] = struct{}{}
				adj[c][i] = struct{}{}
			}
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestDeg := -1, n+1
		for v := 0; v < n; v++ {
			if alive[v] && len(adj[v]) < bestDeg {
				best, bestDeg = v, len(adj[v])
			}
		}
		order = append(order, best)
		alive[best] = false
		// Eliminating best turns its neighborhood into a clique — exactly
		// the fill the numeric elimination will create.
		neigh := make([]int, 0, len(adj[best]))
		for u := range adj[best] {
			neigh = append(neigh, u)
		}
		sort.Ints(neigh)
		for _, u := range neigh {
			delete(adj[u], best)
		}
		for a := 0; a < len(neigh); a++ {
			for b := a + 1; b < len(neigh); b++ {
				adj[neigh[a]][neigh[b]] = struct{}{}
				adj[neigh[b]][neigh[a]] = struct{}{}
			}
		}
	}
	return order
}

// symbolicFill computes the row-wise L+U pattern under the fixed order by
// simulating the elimination: row i's pattern is its stamped entries plus,
// for every below-diagonal column k it holds, the above-diagonal pattern of
// (already final) row k. It then records the elimination schedule upd.
func (s *Symbolic) symbolicFill(rows [][]int) {
	n := s.n
	luCols := make([][]int, n)
	diagAt := make([]int, n) // index of the diagonal inside luCols[i]
	marked := make([]bool, n)
	for r, cs := range rows {
		i := s.rowPerm[r]
		lst := make([]int, 0, len(cs)+4)
		for _, c := range cs {
			lst = append(lst, s.colPerm[c])
		}
		luCols[i] = lst
	}
	for i := 0; i < n; i++ {
		lst := luCols[i]
		for _, c := range lst {
			marked[c] = true
		}
		// Ascending scan: a fill entry at column j (k < j < i) added while
		// processing k is itself reached later in the same scan.
		for k := 0; k < i; k++ {
			if !marked[k] {
				continue
			}
			up := luCols[k][diagAt[k]+1:]
			for _, j := range up {
				if !marked[j] {
					marked[j] = true
					lst = append(lst, j)
				}
			}
		}
		sort.Ints(lst)
		luCols[i] = lst
		for t, c := range lst {
			marked[c] = false
			if c == i {
				diagAt[i] = t
			}
		}
	}
	s.rowPtr = make([]int, n+1)
	for i, lst := range luCols {
		s.rowPtr[i+1] = s.rowPtr[i] + len(lst)
	}
	s.cols = make([]int, s.rowPtr[n])
	s.diag = make([]int, n)
	for i, lst := range luCols {
		copy(s.cols[s.rowPtr[i]:], lst)
		s.diag[i] = s.rowPtr[i] + diagAt[i]
	}
	at := make([]int, n) // position of column c in the current row
	for i := 0; i < n; i++ {
		for t := s.rowPtr[i]; t < s.rowPtr[i+1]; t++ {
			at[s.cols[t]] = t
		}
		for t := s.rowPtr[i]; t < s.diag[i]; t++ {
			k := s.cols[t]
			for u := s.diag[k] + 1; u < s.rowPtr[k+1]; u++ {
				s.upd = append(s.upd, at[s.cols[u]])
			}
		}
	}
}

// N returns the system size.
func (s *Symbolic) N() int { return s.n }

// NNZ returns the number of stored entries in L+U (stamped plus fill-in).
func (s *Symbolic) NNZ() int { return len(s.cols) }

// Trash returns the index of the write-off slot at the end of every value
// array over this pattern: stamps addressed at a ground row or column land
// there, keeping the stamping loops branch-free.
func (s *Symbolic) Trash() int { return len(s.cols) }

// Index returns the value-array position of entry (r, c) in original
// coordinates, resolving the row/column permutations and the CSR layout.
// Negative indices return the trash slot (the MNA ground convention). An
// entry outside the analyzed pattern is a programming error and panics:
// stamp pointers must be resolved against the same pattern that was built.
func (s *Symbolic) Index(r, c int) int {
	if r < 0 || c < 0 {
		return s.Trash()
	}
	i, j := s.rowPerm[r], s.colPerm[c]
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	row := s.cols[lo:hi]
	k := sort.SearchInts(row, j)
	if k == len(row) || row[k] != j {
		panic(fmt.Sprintf("sparse: entry (%d,%d) not in analyzed pattern", r, c))
	}
	return lo + k
}

// Reach is the part of a substitution that determines a chosen set of
// solution components. In permuted coordinates the component of original
// column c is pb[colPerm[c]], and the back substitution computes row j from
// rows above j only, so every wanted component needs the back rows from the
// last one down to the smallest wanted permuted position lo. Those rows read
// the forward-substitution results of rows lo…n-1, and each forward row
// reads the earlier rows its L part names; fwd is that dependency closure.
// Skipping the other rows leaves every computed value with exactly the
// operation sequence of the full substitution.
//
// The full reach (every component) is the plain Solve. A Reach depends only
// on the pattern and the wanted components, so callers compute it once.
type Reach struct {
	fwd []int // permuted rows to permute in and forward-substitute, ascending
	lo  int   // back-substitute rows n-1 down to lo
	out []int // original components written back to the right-hand side
}

// Reach returns the reach of the original solution components comps.
func (s *Symbolic) Reach(comps ...int) *Reach {
	n := s.n
	lo := n
	for _, c := range comps {
		if c < 0 || c >= n {
			panic(fmt.Sprintf("sparse: reach of component %d outside %d unknowns", c, n))
		}
		lo = min(lo, s.colPerm[c])
	}
	need := make([]bool, n)
	rows := n - lo
	for i := lo; i < n; i++ {
		need[i] = true
	}
	// Descending: an L entry of row i names an earlier row, whose own
	// dependencies are then added when the scan reaches it.
	for i := n - 1; i >= 0; i-- {
		if !need[i] {
			continue
		}
		for t := s.rowPtr[i]; t < s.diag[i]; t++ {
			if c := s.cols[t]; !need[c] {
				need[c] = true
				rows++
			}
		}
	}
	buf := make([]int, 0, rows+len(comps))
	for i, ok := range need {
		if ok {
			buf = append(buf, i)
		}
	}
	return &Reach{fwd: buf, lo: lo, out: append(buf[rows:], comps...)}
}

// Scalar is the element type of a sparse system: the DC Jacobian is real,
// the AC admittance matrix complex.
type Scalar interface {
	float64 | complex128
}

// NewMatrix returns a zero one-lane matrix over the analyzed pattern: the
// scalar system, whose Factorize and Solve run the one-lane kernel below.
func NewMatrix[T Scalar](s *Symbolic) *BatchMatrix[T] {
	return NewBatchMatrix[T](s, 1)
}

// factorize1 is the one-lane kernel: the numeric LU elimination in place
// over the precomputed elimination schedule, with no lane loop, no pivot
// search and no allocation — the refactorization that amortizes the
// symbolic analysis over every Newton iteration and AC frequency point of a
// scalar solve. The pivot step is the scalar realPivot or complexPivot,
// called directly: the element type is resolved once per call, not through
// the per-row function value the lane kernels use. It stops at the first
// failing pivot; the remaining rows are left unfactored.
func (m *BatchMatrix[T]) factorize1() {
	s := m.sym
	vals, inv, cols, upd := m.vals, m.inv, s.cols, s.upd
	rm, isReal := any(m).(*BatchMatrix[float64])
	cm, _ := any(m).(*BatchMatrix[complex128])
	m.errs[0] = nil
	p := 0
	for i := 0; i < s.n; i++ {
		dp := s.diag[i]
		for t := s.rowPtr[i]; t < dp; t++ {
			k := cols[t]
			lo := s.diag[k] + 1
			dst := upd[p : p+s.rowPtr[k+1]-lo]
			p += len(dst)
			lik := vals[t] * inv[k]
			vals[t] = lik
			if lik == 0 {
				continue
			}
			src := vals[lo : lo+len(dst)]
			for j, d := range dst {
				vals[d] -= lik * src[j]
			}
		}
		var verdict error
		if isReal {
			rm.inv[i], verdict = realPivot(rm.vals[dp])
		} else {
			cm.inv[i], verdict = complexPivot(cm.vals[dp])
		}
		if verdict != nil {
			m.errs[0] = verdict
			m.pivotErrs(i)
			return
		}
	}
}

// solve1 is the one-lane substitution over the reach r (see SolveFor):
// permute in, forward- and back-substitute, permute back out.
func (m *BatchMatrix[T]) solve1(b []T, r *Reach) {
	s := m.sym
	vals, cols, pb := m.vals, s.cols, m.pb
	for _, i := range r.fwd {
		pb[i] = b[s.rowInv[i]]
	}
	for _, i := range r.fwd {
		sum := pb[i]
		for t := s.rowPtr[i]; t < s.diag[i]; t++ {
			sum -= vals[t] * pb[cols[t]]
		}
		pb[i] = sum
	}
	for i := s.n - 1; i >= r.lo; i-- {
		sum := pb[i]
		for t := s.diag[i] + 1; t < s.rowPtr[i+1]; t++ {
			sum -= vals[t] * pb[cols[t]]
		}
		pb[i] = sum * m.inv[i]
	}
	for _, c := range r.out {
		b[c] = pb[s.colPerm[c]]
	}
}

// errZeroPivot and errSubnormalPivot are the pivot step's lane verdicts;
// the kernels turn them into row-numbered ErrSingular errors (pivotErr).
var (
	errZeroPivot      = errors.New("zero pivot")
	errSubnormalPivot = errors.New("subnormal pivot")
)

// pivotErr returns the error reported for a pivot-step verdict at permuted
// row i.
func pivotErr(verdict error, i int) error {
	if verdict == errSubnormalPivot {
		// A subnormal pivot whose reciprocal overflows: numerically
		// indistinguishable from singular at working precision.
		return fmt.Errorf("%w: subnormal pivot at permuted row %d", ErrSingular, i)
	}
	return fmt.Errorf("%w: zero pivot at permuted row %d", ErrSingular, i)
}

// pivotStep inverts the lane pivots d of one row into inv. A lane with
// errs[l] != nil broke down at an earlier row: its reciprocal is set to
// zero so its multipliers vanish from the remaining elimination. A lane
// whose pivot is zero or NaN gets errZeroPivot, one whose reciprocal
// overflows errSubnormalPivot (both with a zero reciprocal); the step then
// returns true.
//
// The step runs once per row for all lanes of the K > 1 kernels, and the
// element type is resolved once per matrix (pivotStepFor), not per lane: on
// a small MNA pattern the pivot step is a meaningful slice of the whole
// factorization. Each lane goes through the scalar step (realPivot,
// complexPivot) that the one-lane kernel calls directly.
type pivotStep[T Scalar] func(d, inv []T, errs []error) bool

func pivotStepFor[T Scalar]() pivotStep[T] {
	var z T
	if _, ok := any(z).(float64); ok {
		return any(pivotStep[float64](realPivots)).(pivotStep[T])
	}
	return any(pivotStep[complex128](complexPivots)).(pivotStep[T])
}

func realPivots(d, inv []float64, errs []error) bool {
	failed := false
	for l, v := range d {
		r := 0.0
		if errs[l] == nil {
			var verdict error
			if r, verdict = realPivot(v); verdict != nil {
				errs[l], failed = verdict, true
			}
		}
		inv[l] = r
	}
	return failed
}

// realPivot is the pivot step of one real lane: the reciprocal of a usable
// pivot, or a zero reciprocal and the lane's verdict.
func realPivot(v float64) (float64, error) {
	if v == 0 || v != v {
		return 0, errZeroPivot
	}
	r := 1 / v
	if r > math.MaxFloat64 || r < -math.MaxFloat64 {
		return 0, errSubnormalPivot
	}
	return r, nil
}

func complexPivots(d, inv []complex128, errs []error) bool {
	failed := false
	for l, v := range d {
		var r complex128
		if errs[l] == nil {
			var verdict error
			if r, verdict = complexPivot(v); verdict != nil {
				errs[l], failed = verdict, true
			}
		}
		inv[l] = r
	}
	return failed
}

// complexPivot is the pivot step of one complex lane. It follows
// cmplx.IsNaN's rules for a bad pivot: zero, or a NaN part while no part is
// infinite.
func complexPivot(v complex128) (complex128, error) {
	var r complex128
	re, im := real(v), imag(v)
	switch {
	case v == 0:
		return 0, errZeroPivot
	case math.Abs(re) <= math.MaxFloat64 && math.Abs(im) <= math.MaxFloat64:
		r = recipFinite(re, im)
	case math.IsInf(re, 0) || math.IsInf(im, 0):
		r = 1 / v
	default:
		return 0, errZeroPivot
	}
	if rr, ri := real(r), imag(r); rr > math.MaxFloat64 || rr < -math.MaxFloat64 ||
		ri > math.MaxFloat64 || ri < -math.MaxFloat64 {
		return 0, errSubnormalPivot
	}
	return r, nil
}

// recipFinite returns 1/complex(re, im) for finite parts, not both zero,
// exactly as runtime.complex128div evaluates it for the numerator 1+0i
// (Smith's algorithm) — minus the call. The literal 0 and 1 terms stay on
// purpose: 0−x and x+0 differ from −x and x on signed zeros. With finite,
// nonzero input the quotients are never both NaN, so the runtime's C99
// infinity/zero correction cannot trigger and is left out.
func recipFinite(re, im float64) complex128 {
	if math.Abs(re) >= math.Abs(im) {
		ratio := im / re
		denom := re + ratio*im
		return complex((1+0*ratio)/denom, (0-1*ratio)/denom)
	}
	ratio := re / im
	denom := im + ratio*re
	return complex((1*ratio+0)/denom, (0*ratio-1)/denom)
}
