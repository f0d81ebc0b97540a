// Package spice is a small modified-nodal-analysis (MNA) circuit simulator:
// DC operating point by damped Newton–Raphson with gmin and source stepping,
// and small-signal AC analysis by complex-valued MNA at the linearized
// operating point. It stands in for the HSPICE evaluator of the paper's flow
// (see DESIGN.md) and cross-checks the behavioural amplifier models.
package spice

import (
	"errors"
	"fmt"
	"slices"

	"github.com/eda-go/moheco/internal/linalg/sparse"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/obs"
)

// Solver work counters. Lanes count one-lane-equivalent work (a batched
// iteration that advances l live lanes counts l), so the totals do not
// depend on the lane width; the lane histogram records live-lane occupancy
// per Newton run of a group wider than one lane — low occupancy means the
// lockstep width is wasted on retired lanes. The AC group-points counter is
// the exception: one per K-lane factorization of an AC sweep, whatever the
// number of lanes still sweeping, so AC lane occupancy is the AC share of
// spice_factorizations_total over it.
//
// The two MOSFET evaluation counters split device-model work by kind: a DC
// evaluation (mos.Device.EvaluateDC, one per transistor per Newton
// iteration of a live lane) and a full one (EvaluateTo, capacitances
// included, one per transistor per converged operating point). Each is
// added once per Newton run or DC batch, never once per device.
var (
	mNewtonIters    = obs.Default().Counter("spice_newton_iterations_total")
	mFactorizations = obs.Default().Counter("spice_factorizations_total")
	mACGroupPoints  = obs.Default().Counter("spice_ac_group_points_total")
	mMOSDCEvals     = obs.Default().Counter("spice_mos_dc_evaluations_total")
	mMOSFullEvals   = obs.Default().Counter("spice_mos_full_evaluations_total")
	mLockstepLanes  = obs.Default().Histogram("spice_lockstep_lanes", []float64{1, 2, 4, 8, 16, 32})
)

// ErrNoConvergence reports that the DC solver could not find an operating
// point. The yield machinery treats this as a failed sample, mirroring how a
// real MC flow handles SPICE convergence failures.
var ErrNoConvergence = errors.New("spice: DC analysis did not converge")

// Options tunes the solver.
type Options struct {
	MaxIter int // Newton iterations per gmin step (default 150)
	// Lanes selects the lockstep lane count of the batch DC/AC paths: how
	// many Monte-Carlo samples refactorize and solve per index traversal.
	// The zero value resolves automatically — MOHECO_LANES override first,
	// then a choice by pattern size — and 1 disables lockstep batching.
	// See resolveLanes.
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
	return o
}

// Newton and gmin-stepping constants of the DC solver.
const (
	absTol    = 1e-9  // voltage convergence tolerance (V)
	relTol    = 1e-6  // relative convergence tolerance
	gminStart = 1e-3  // initial gmin of the stepping ladder (S)
	gminFinal = 1e-12 // final gmin left in the matrix (S)
	maxStep   = 0.5   // Newton step damping limit per node (V)
)

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
	// New), shared by the DC, AC and transient assemblies.
	plan *stampPlan

	// sym is the symbolic factorization computed once in New. reach caches
	// the AC substitution reach of the recorded node range reachNodes (see
	// reachOf).
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

	// mosfets lists the transistors in netlist order, the order of
	// OPResult.MOS and of the stamp plan's MOSFET stamps.
	mosfets []*netlist.Mosfet
}

// branch is an extra MNA current unknown (V and E elements).
type branch struct {
	dev netlist.Device
}

// New builds an engine for the circuit. Besides validating the netlist it
// runs the engine's one-time assembly analysis: the structural pattern of
// the MNA system is enumerated once, its symbolic factorization is computed
// from it, and every device resolves its stamp positions to direct
// value-array indices.
//
// A structurally singular pattern — a loop of voltage-defined branches, say
// two voltage sources across one node pair — is rejected here with an error
// that wraps sparse.ErrStructural and names the branch device or node left
// without a pivot. The pattern covers every stamp of every analysis, so
// such a Jacobian is singular for every value assignment and no solve could
// succeed.
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
	// The one-time symbolic phase. The plan built against the pattern
	// builder records the pattern; the second pass resolves the indices
	// into the same storage.
	b := sparse.NewBuilder(e.size)
	plan := e.buildPlan(nil, func(r, c int) int {
		b.Add(r, c)
		return 0
	})
	sym, err := b.Analyze()
	if err != nil {
		var se *sparse.StructuralError
		if errors.As(err, &se) {
			err = fmt.Errorf("%s has no pivot: %w", e.unknownName(se.Col), err)
		}
		return nil, fmt.Errorf("spice: %w", err)
	}
	e.sym = sym
	e.plan = e.buildPlan(plan, sym.Index)
	e.mosfets = make([]*netlist.Mosfet, len(e.plan.mos))
	for i := range e.plan.mos {
		e.mosfets[i] = e.plan.mos[i].dev
	}
	e.scrV = make([]float64, ckt.NumNodes())
	e.lanes = resolveLanes(e.opts.Lanes, e.size)
	return e, nil
}

// unknownName names MNA unknown i: a node voltage, or the branch current of
// a V or E device.
func (e *Engine) unknownName(i int) string {
	if i < e.nNodes {
		return fmt.Sprintf("node %q", e.ckt.NodeName(i+1))
	}
	return "the branch of " + e.branches[i-e.nNodes].dev.DevName()
}

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
	// MOS holds each transistor's operating point in netlist order: MOS[i]
	// belongs to Engine.MOSFETs()[i] (MOSIndex resolves a name once). It is
	// the linearization the AC sweep stamps, so a sweep evaluates no device.
	MOS []mos.OP
	// Iterations counts total Newton iterations used.
	Iterations int
}

// clone returns a caller-owned deep copy of r.
func (r *OPResult) clone() *OPResult {
	return &OPResult{
		V:          slices.Clone(r.V),
		BranchI:    slices.Clone(r.BranchI),
		MOS:        slices.Clone(r.MOS),
		Iterations: r.Iterations,
	}
}

// MOSFETs returns the circuit's transistors in netlist order, the order of
// OPResult.MOS. The slice is the engine's; callers must not modify it.
func (e *Engine) MOSFETs() []*netlist.Mosfet { return e.mosfets }

// MOSIndex returns the position of the named transistor in OPResult.MOS.
func (e *Engine) MOSIndex(name string) (int, bool) {
	for i, m := range e.mosfets {
		if m.Name == name {
			return i, true
		}
	}
	return 0, false
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
// one-lane DCOperatingPointBatch, and its result is the caller's.
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
// DCOperatingPointBatchFrom, and unlike a batch result its result is the
// caller's: a copy that later solves on the engine leave alone.
func (e *Engine) DCOperatingPointFrom(prev *OPResult) (*OPResult, error) {
	res, errs := e.DCOperatingPointBatchFrom(prev, oneLane, noLane)
	if res[0] == nil {
		return nil, errs[0]
	}
	return res[0].clone(), nil
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

// newOPResult allocates an operating point shaped for the engine's
// circuit.
func (e *Engine) newOPResult() OPResult {
	return OPResult{
		V:       make([]float64, e.ckt.NumNodes()),
		BranchI: make([]float64, len(e.branches)),
		MOS:     make([]mos.OP, len(e.mosfets)),
	}
}

// opResult writes a converged solution vector into res, shaped by
// newOPResult, and evaluates every transistor once, in full, at it: the
// operating point the AC sweep linearizes.
func (e *Engine) opResult(res *OPResult, x []float64, iters int) {
	res.Iterations = iters
	for i := 1; i < e.ckt.NumNodes(); i++ {
		res.V[i] = x[row(i)]
	}
	copy(res.BranchI, x[e.nNodes:])
	for i, m := range e.mosfets {
		vgs, vds, vbs, _ := mosBias(m, res.V)
		m.Dev.EvaluateTo(&res.MOS[i], vgs, vds, vbs)
	}
}

// loadOP writes the operating point op into the solution vector x, the
// inverse of opResult.
func (e *Engine) loadOP(x []float64, op *OPResult) {
	for i := 1; i < e.ckt.NumNodes(); i++ {
		x[row(i)] = op.V[i]
	}
	copy(x[e.nNodes:], op.BranchI)
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
