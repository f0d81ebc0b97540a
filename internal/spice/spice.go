// Package spice is a small modified-nodal-analysis (MNA) circuit simulator:
// DC operating point by damped Newton–Raphson with gmin and source stepping,
// and small-signal AC analysis by complex-valued MNA at the linearized
// operating point. It stands in for the HSPICE evaluator of the paper's flow
// (see DESIGN.md) and cross-checks the behavioural amplifier models.
package spice

import (
	"errors"
	"fmt"

	"github.com/eda-go/moheco/internal/linalg/sparse"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/obs"
)

// Solver work counters. Lanes count one-lane-equivalent work (a batched
// iteration that advances l live lanes counts l), so the totals do not
// depend on the lane width; the lane histogram records live-lane occupancy
// per Newton run of a group wider than one lane — low occupancy means the
// lockstep width is wasted on retired lanes.
var (
	mNewtonIters    = obs.Default().Counter("spice_newton_iterations_total")
	mFactorizations = obs.Default().Counter("spice_factorizations_total")
	mLockstepLanes  = obs.Default().Histogram("spice_lockstep_lanes", []float64{1, 2, 4, 8, 16, 32})
)

// ErrNoConvergence reports that the DC solver could not find an operating
// point. The yield machinery treats this as a failed sample, mirroring how a
// real MC flow handles SPICE convergence failures.
var ErrNoConvergence = errors.New("spice: DC analysis did not converge")

// Options tunes the solver.
type Options struct {
	MaxIter   int     // Newton iterations per gmin step (default 150)
	AbsTol    float64 // voltage convergence tolerance (default 1e-9 V)
	RelTol    float64 // relative tolerance (default 1e-6)
	GminStart float64 // initial gmin for stepping (default 1e-3 S)
	GminFinal float64 // final gmin left in the matrix (default 1e-12 S)
	MaxStep   float64 // Newton step damping limit per node (default 0.5 V)
	// Solver selects the linear-solver backend (dense LU with partial
	// pivoting, or static-pattern sparse LU with symbolic factorization
	// reuse). The zero value SolverAuto sizes the choice automatically and
	// honours the MOHECO_SOLVER environment override.
	Solver SolverKind
	// Lanes selects the lockstep lane count of the batch DC/AC paths: how
	// many Monte-Carlo samples refactorize and solve per index traversal.
	// The zero value resolves automatically — MOHECO_LANES override first,
	// then a choice by pattern size — and 1 disables lockstep batching.
	// Dense engines always run one lane. See resolveLanes.
	Lanes int
	// Nodeset seeds the DC solve with initial node voltages (by node name),
	// the classic .nodeset escape hatch for circuits with high-gain
	// feedback loops.
	Nodeset map[string]float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 150
	}
	if o.AbsTol == 0 {
		o.AbsTol = 1e-9
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-6
	}
	if o.GminStart == 0 {
		o.GminStart = 1e-3
	}
	if o.GminFinal == 0 {
		o.GminFinal = 1e-12
	}
	if o.MaxStep == 0 {
		o.MaxStep = 0.5
	}
	if o.Solver == SolverAuto && envSolver != SolverAuto {
		o.Solver = envSolver
	}
	return o
}

// Engine simulates one circuit. An Engine owns scratch buffers reused
// across Newton iterations and across successive solves, so a single Engine
// is NOT safe for concurrent use — callers that fan out across goroutines
// build one engine per goroutine. Reusing one engine for a whole batch of
// solves on the same topology (the batch evaluation pipeline's per-design
// context) is exactly what the scratch reuse is for.
type Engine struct {
	ckt  *netlist.Circuit
	opts Options

	nNodes   int // unknown node voltages (excluding ground)
	branches []branch
	size     int // nNodes + len(branches)

	// plan caches every device's direct stamp indices (resolved once in
	// New), shared by the DC, AC and transient assemblies of both solver
	// backends.
	plan *stampPlan

	// Sparse backend: the symbolic factorization computed once in New. nil
	// on the dense path. reach caches the AC substitution reach of the
	// recorded node range reachNodes (see reachOf).
	sym        *sparse.Symbolic
	reach      *sparse.Reach
	reachNodes [2]int

	// lanes is the resolved lockstep lane count; scratch holds the solve
	// scratch of every group width the engine has run (see scratchFor).
	lanes   int
	scratch []*scratch

	// scrV is the node-voltage view consumed by the device models, shared
	// by every assembly.
	scrV []float64
}

// branch is an extra MNA current unknown (V and E elements).
type branch struct {
	dev netlist.Device
}

// New builds an engine for the circuit. Besides validating the netlist it
// runs the engine's one-time assembly analysis: the structural pattern of
// the MNA system is enumerated once, the sparse backend (when selected)
// computes its symbolic factorization from it, and every device resolves
// its stamp positions to direct value-array indices.
func New(ckt *netlist.Circuit, opts Options) (*Engine, error) {
	if err := ckt.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{ckt: ckt, opts: opts.withDefaults(), nNodes: ckt.NumNodes() - 1}
	for _, d := range ckt.Devices {
		switch d.(type) {
		case *netlist.VSource, *netlist.VCVS:
			e.branches = append(e.branches, branch{dev: d})
		}
	}
	e.size = e.nNodes + len(e.branches)
	if e.opts.Solver == SolverSparse || (e.opts.Solver == SolverAuto && e.size >= sparseAutoMin) {
		// A structurally singular pattern (no diagonal assignment exists)
		// falls back to dense: partial pivoting may still cope, and the
		// netlist passed Validate.
		if sym, err := e.analyzePattern(); err == nil {
			e.sym = sym
			e.plan = e.buildPlan(sym.Index)
		}
	}
	if e.sym == nil {
		// Row-major dense values with one trailing element beyond n×n: the
		// write-off slot ground stamps land in. The LU kernels only address
		// n×n.
		n := e.size
		e.plan = e.buildPlan(func(r, c int) int {
			if r < 0 || c < 0 {
				return n * n
			}
			return r*n + c
		})
	}
	e.scrV = make([]float64, ckt.NumNodes())
	e.lanes = resolveLanes(e.opts.Lanes, e.size, e.sym != nil)
	return e, nil
}

// Sparse reports whether the engine resolved to the sparse backend.
func (e *Engine) Sparse() bool { return e.sym != nil }

// Size returns the MNA system size (node unknowns plus branch currents).
func (e *Engine) Size() int { return e.size }

// row maps a node index to its MNA row, or -1 for ground.
func row(node int) int { return node - 1 }

// OPResult is a DC operating point.
type OPResult struct {
	// V holds node voltages indexed by netlist node index (V[0] = 0).
	V []float64
	// BranchI holds the currents of V/E elements in branch order.
	BranchI []float64
	// MOS holds each transistor's operating point, keyed by instance name.
	MOS map[string]mos.OP
	// Iterations counts total Newton iterations used.
	Iterations int
}

// VNode returns the voltage at the named node.
func (r *OPResult) VNode(c *netlist.Circuit, name string) (float64, error) {
	i, ok := c.FindNode(name)
	if !ok {
		return 0, fmt.Errorf("spice: unknown node %q", name)
	}
	return r.V[i], nil
}

// DCOperatingPoint solves the nonlinear DC equations from a cold start: a
// Newton solve stepped down a gmin ladder and, if that fails, retried with
// source stepping (a nodeset adds a direct attempt first). It is the
// one-lane DCOperatingPointBatch.
func (e *Engine) DCOperatingPoint() (*OPResult, error) {
	return e.DCOperatingPointFrom(nil)
}

// DCOperatingPointFrom solves the DC equations warm-started from a previous
// operating point — the fast path of the batch evaluation pipeline, where
// every Monte-Carlo sample of one design perturbs the model cards only
// slightly and the design's nominal solution sits inside the Newton
// basin. A single direct solve (no gmin or source stepping) is attempted
// from prev; if it does not converge, the engine falls back to the full
// cold-start procedure, so a sample reports non-convergence only when the
// cold path fails too and failure injection is unchanged. A nil or
// mismatched prev degenerates to DCOperatingPoint. It is the one-lane
// DCOperatingPointBatchFrom.
func (e *Engine) DCOperatingPointFrom(prev *OPResult) (*OPResult, error) {
	res, errs := e.DCOperatingPointBatchFrom(prev, oneLane, noLane)
	return res[0], errs[0]
}

// seedDC writes the cold-start initial iterate: zeros, ground-referenced
// voltage sources pinning their node trivially (which makes cold starts and
// nodesets effective), then the nodeset.
func (e *Engine) seedDC(x []float64) {
	for i := range x {
		x[i] = 0
	}
	for _, d := range e.ckt.Devices {
		if v, ok := d.(*netlist.VSource); ok {
			switch {
			case v.NN == netlist.Ground && v.NP != netlist.Ground:
				x[row(v.NP)] = v.DC
			case v.NP == netlist.Ground && v.NN != netlist.Ground:
				x[row(v.NN)] = -v.DC
			}
		}
	}
	for name, v := range e.opts.Nodeset {
		if n, ok := e.ckt.FindNode(name); ok && n != netlist.Ground {
			x[row(n)] = v
		}
	}
}

// opResult packages a converged solution vector into an OPResult.
func (e *Engine) opResult(x []float64, iters int) *OPResult {
	res := &OPResult{
		V:          make([]float64, e.ckt.NumNodes()),
		BranchI:    make([]float64, len(e.branches)),
		MOS:        map[string]mos.OP{},
		Iterations: iters,
	}
	for i := 1; i < e.ckt.NumNodes(); i++ {
		res.V[i] = x[row(i)+0]
	}
	for i := range e.branches {
		res.BranchI[i] = x[e.nNodes+i]
	}
	for _, d := range e.ckt.Devices {
		if m, ok := d.(*netlist.Mosfet); ok {
			var op mos.OP
			vgs, vds, vbs, _ := mosBias(m, res.V)
			m.Dev.EvaluateTo(&op, vgs, vds, vbs)
			res.MOS[m.Name] = op
		}
	}
	return res
}

// stampCtx carries the analysis context: gmin damping, source scaling
// (for source stepping), the companion model of a transient step (backward
// Euler by default, trapezoidal when trap is set) and the step itself.
type stampCtx struct {
	gmin     float64
	srcScale float64
	trap     bool // trapezoidal companion models instead of backward Euler
	laneStep
}

// laneStep is the transient step context of one lane: the time point, the
// timestep and the previous accepted point feeding the capacitor companion
// models — icPrev holds each capacitor's current there (trap only), in
// stampPlan.caps order. The zero value with time -1 (dcStep) is DC.
type laneStep struct {
	time   float64   // < 0 for DC
	h      float64   // 0 for DC
	vPrev  []float64 // previous node voltages by node id (transient only)
	icPrev []float64 // per-capacitor currents at the previous point (trap only)
}

// dcStep is the step context of a DC solve.
var dcStep = laneStep{time: -1}

// mosBias returns the terminal voltages of m in its model's NMOS-like frame
// (vgs, vds, vbs with vds ≥ 0) given node voltages V (indexed by netlist
// node id), handling polarity and source/drain swap. swapped reports
// whether drain and source were exchanged.
func mosBias(m *netlist.Mosfet, V []float64) (vgs, vds, vbs float64, swapped bool) {
	vd, vg, vs, vb := V[m.D], V[m.G], V[m.S], V[m.B]
	if m.Dev.Params.PMOS {
		// Magnitude frame: vgs = vSG, vds = vSD, vbs = vSB.
		if vs-vd < 0 {
			vd, vs = vs, vd
			swapped = true
		}
		return vs - vg, vs - vd, vs - vb, swapped
	}
	if vd-vs < 0 {
		vd, vs = vs, vd
		swapped = true
	}
	return vg - vs, vd - vs, vb - vs, swapped
}
