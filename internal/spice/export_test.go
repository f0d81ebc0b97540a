package spice

import (
	"math"

	"github.com/eda-go/moheco/internal/linalg"
	"github.com/eda-go/moheco/internal/linalg/sparse"
)

// This file lends the engine's stamped linear systems to the external test
// package, which can build the registered scenario testbenches (importing
// the scenario registry from package spice would be an import cycle).

// SolverTestbench is the every-device testbench of the internal tests.
var SolverTestbench = solverTestbench

// DCJacobian stamps the DC Jacobian at the operating point op, as the last
// Newton iteration of a converged solve sees it: a one-lane sparse matrix
// ready to factor, and its dense copy.
func (e *Engine) DCJacobian(op *OPResult) (*sparse.BatchMatrix[float64], *linalg.Matrix) {
	m := sparse.NewMatrix[float64](e.sym)
	x := make([]float64, e.size)
	e.loadOP(x, op)
	F := make([]float64, e.size+1)
	ctx := stampCtx{gmin: gminFinal, srcScale: 1, laneStep: dcStep}
	e.plan.stampDC(m.Values(), F, 1, 0, x, e.scrV, ctx)
	d := linalg.NewMatrix(e.size, e.size)
	densify(e, m.Values(), d.Set)
	return m, d
}

// ACSystem stamps the small-signal system Y = G + jωC at op and frequency f
// with its drive, as one point of a sweep assembles it: a one-lane sparse
// matrix ready to factor, its dense copy and the right-hand side.
func (e *Engine) ACSystem(op *OPResult, f float64) (*sparse.BatchMatrix[complex128], *linalg.CMatrix, []complex128) {
	m := sparse.NewMatrix[complex128](e.sym)
	yv := m.Values()
	gv, cv := make([]float64, len(yv)), make([]float64, len(yv))
	rhs := make([]complex128, e.size+1)
	e.plan.stampAC(gv, cv, rhs, 1, 0, op, gminFinal)
	omega := 2 * math.Pi * f
	for i := range yv {
		yv[i] = complex(gv[i], omega*cv[i])
	}
	d := linalg.NewCMatrix(e.size, e.size)
	densify(e, yv, d.Set)
	return m, d, rhs[:e.size]
}

// densify copies every entry of the engine's pattern from the value array
// vals into a dense matrix through set.
func densify[T sparse.Scalar](e *Engine, vals []T, set func(r, c int, v T)) {
	e.buildPlan(nil, func(r, c int) int {
		if r >= 0 && c >= 0 {
			set(r, c, vals[e.sym.Index(r, c)])
		}
		return 0
	})
}
