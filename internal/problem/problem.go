// Package problem defines the yield-optimization problem abstraction shared
// by the estimators, optimizers and experiment harness: a design space with
// bounds, a specification list, a process-variation dimension, and an
// evaluation function mapping (design, variation vector) to performances.
package problem

import (
	"fmt"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/randx"
)

// Problem is a sizing problem under process variations.
type Problem interface {
	// Name identifies the problem in reports.
	Name() string
	// Dim is the number of design variables.
	Dim() int
	// Bounds returns the lower and upper design-variable bounds
	// (slices of length Dim; callers must not modify them).
	Bounds() (lo, hi []float64)
	// Specs returns the specification list; Evaluate's output aligns to it.
	Specs() []constraint.Spec
	// VarDim is the dimension of the process-variation space.
	VarDim() int
	// Evaluate computes the performance vector of design x under the
	// standard-normal variation vector xi. A nil xi means the nominal
	// process. Implementations must be deterministic and safe for
	// concurrent use. An error marks the sample as failed (for yield
	// purposes) or the design as broken (for feasibility purposes).
	Evaluate(x, xi []float64) ([]float64, error)
}

// BatchEvaluator is the optional fast-path capability of a Problem: evaluate
// one design under a whole batch of variation vectors in a single call.
// Implementations amortize per-design setup (netlist construction, simulator
// state, solver warm starts) across the batch and may keep it across calls
// for the same design (the spice problems keep a small store of compiled
// testbenches), which is where the simulator-in-the-loop path recovers the
// cost the paper's flow pays per HSPICE run. Setup kept across calls is
// bound by the same rule as setup kept across samples: a call's results
// must not depend on which calls came before it.
//
// The contract mirrors Evaluate sample by sample: the returned slices have
// len(xis) entries, perfs[i] aligns to Specs(), and errs[i] non-nil marks
// sample i as failed exactly as a point-wise Evaluate error would. A batch
// call must be deterministic given (x, xis) — per-sample results must not
// depend on the worker pool or on how callers partition their sample plans
// beyond the boundaries of the batch itself. Implementations may carry
// solver state from sample i to sample i+1 (e.g. Newton warm starts) only
// if a carried-state solve converges to the same pass/fail outcome a cold
// solve would reach. In particular, circuits with multiple DC solutions
// (bistable topologies) must not warm-start across samples — a carried
// operating point can pull the solve into a different basin than the cold
// start the point-wise fallback uses, silently breaking the batched-vs-
// fallback equivalence; only monostable circuits qualify for that
// optimization.
//
// Implementations that solve several samples in lockstep (the sparse
// engine's multi-lane kernel) face a stricter form of the same rule: how
// samples are grouped into lanes must be a pure function of the batch —
// fixed-width groups in sample order — never of worker schedule or timing,
// and a sample's result must not depend on which lane it lands in or on
// what its lane-mates are. The engine's lane determinism contract (each
// lane performs exactly the scalar kernel's operation sequence) plus a
// per-sample warm-start state that is fixed for the whole batch (the
// design's nominal operating point, or a cold start) deliver that: every
// grouping, lane width and worker count then produces the same bits as the
// point-wise path.
type BatchEvaluator interface {
	Problem
	// EvaluateBatch evaluates design x under every variation vector of the
	// batch and returns per-sample performances and errors, both of
	// len(xis).
	EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error)
}

// EvaluateBatch evaluates one design under a batch of variation vectors,
// taking the problem's native batch path when it implements BatchEvaluator
// and falling back to a point-wise Evaluate loop otherwise — the generic
// adapter that lets every consumer hand whole batches down unconditionally.
// perfs and errs are per-sample (errs[i] non-nil marks sample i failed,
// exactly like a point-wise Evaluate error); the final error is structural —
// a batch implementation returning mis-shaped results — and means the
// per-sample slices cannot be trusted.
func EvaluateBatch(p Problem, x []float64, xis [][]float64) (perfs [][]float64, errs []error, err error) {
	if b, ok := p.(BatchEvaluator); ok {
		perfs, errs = b.EvaluateBatch(x, xis)
		if len(perfs) != len(xis) || len(errs) != len(xis) {
			return nil, nil, fmt.Errorf("problem %s: batch of %d samples returned %d performances and %d errors",
				p.Name(), len(xis), len(perfs), len(errs))
		}
		return perfs, errs, nil
	}
	perfs = make([][]float64, len(xis))
	errs = make([]error, len(xis))
	for i, xi := range xis {
		perfs[i], errs[i] = p.Evaluate(x, xi)
	}
	return perfs, errs, nil
}

// PassFailBatch reduces a whole batch to the paper's per-sample indicator
// J(x, ξ) ∈ {0, 1}. Per-sample errors are reported alongside (pass[i] is
// false whenever errs[i] is non-nil); the final error is structural, as in
// EvaluateBatch.
func PassFailBatch(p Problem, x []float64, xis [][]float64) (pass []bool, errs []error, err error) {
	perfs, errs, err := EvaluateBatch(p, x, xis)
	if err != nil {
		return nil, nil, err
	}
	specs := p.Specs()
	pass = make([]bool, len(xis))
	for i := range xis {
		if errs[i] == nil {
			pass[i] = constraint.AllSatisfied(specs, perfs[i])
		}
	}
	return pass, errs, nil
}

// CheckDesign validates x against the problem's bounds.
func CheckDesign(p Problem, x []float64) error {
	if len(x) != p.Dim() {
		return fmt.Errorf("problem %s: design has %d variables, want %d", p.Name(), len(x), p.Dim())
	}
	lo, hi := p.Bounds()
	for i, v := range x {
		if v < lo[i] || v > hi[i] {
			return fmt.Errorf("problem %s: x[%d]=%g outside [%g, %g]", p.Name(), i, v, lo[i], hi[i])
		}
	}
	return nil
}

// RandomDesign draws a uniform random design inside the bounds.
func RandomDesign(p Problem, rng *randx.Stream) []float64 {
	lo, hi := p.Bounds()
	x := make([]float64, p.Dim())
	for i := range x {
		x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
	}
	return x
}

// NominalFitness evaluates the design at the nominal process point and
// reduces it to a constraint fitness (Feasible + Violation). The yield field
// is left zero; estimators fill it for feasible candidates.
func NominalFitness(p Problem, x []float64) (constraint.Fitness, []float64, error) {
	perf, err := p.Evaluate(x, nil)
	if err != nil {
		// A broken nominal evaluation is maximally infeasible.
		return constraint.Fitness{Feasible: false, Violation: 1e9}, nil, err
	}
	specs := p.Specs()
	if constraint.AllSatisfied(specs, perf) {
		return constraint.Fitness{Feasible: true}, perf, nil
	}
	return constraint.Fitness{Feasible: false, Violation: constraint.TotalViolation(specs, perf)}, perf, nil
}

// PassFail reduces one variation sample to the paper's indicator
// J(x, ξ) ∈ {0, 1}: 1 when every spec is met.
func PassFail(p Problem, x, xi []float64) (bool, error) {
	perf, err := p.Evaluate(x, xi)
	if err != nil {
		return false, err
	}
	return constraint.AllSatisfied(p.Specs(), perf), nil
}
