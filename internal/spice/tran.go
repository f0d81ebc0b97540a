package spice

import (
	"fmt"
	"math"
	"sort"

	"github.com/eda-go/moheco/internal/netlist"
)

// TranMethod selects the capacitor companion model of the transient
// integrator.
type TranMethod int

const (
	// Trap is the trapezoidal rule: second order, A-stable, the method the
	// adaptive pipeline runs (and the default of TranOptions).
	Trap TranMethod = iota
	// BackwardEuler is first order and L-stable — the seed integrator, kept
	// both as the fixed-step compatibility mode and as a heavily damped
	// fallback for circuits that make the trapezoidal rule ring.
	BackwardEuler
)

// String implements fmt.Stringer.
func (m TranMethod) String() string {
	if m == BackwardEuler {
		return "backward-euler"
	}
	return "trap"
}

// TranOptions configures a transient analysis. The zero value is invalid
// (TStop is required); TransientOpts fills every other field with defaults.
type TranOptions struct {
	// TStop is the end of the integration window (s). Required.
	TStop float64
	// Step is the fixed timestep, or the initial step of the adaptive
	// controller, which also restarts at no more than Step after each
	// breakpoint. Defaults to TStop/1000 in adaptive mode; required in
	// fixed mode. An adaptive run's point count is not TStop/Step: the
	// controller grows the step toward MaxStep across smooth stretches.
	Step float64
	// Adaptive enables local-truncation-error step control: each step's LTE
	// is estimated from divided differences of the accepted solution
	// history, steps whose LTE exceeds the tolerance are rejected and
	// retried smaller, and accepted steps grow the next step toward the
	// tolerance. The step sequence is a pure function of the circuit and the
	// options — no wall clock, no randomness — so repeated runs are
	// bit-identical, which is what lets the yield pipeline run transient
	// scenarios under any worker count.
	Adaptive bool
	// Method selects the companion model (default Trap).
	Method TranMethod
	// LTERel and LTEAbs set the per-node LTE tolerance
	// tol = LTEAbs + LTERel·|v| (defaults 1e-3 and 1e-6 V).
	LTERel float64
	LTEAbs float64
	// MinStep floors the adaptive step (default TStop·1e-12). When the
	// controller is pinned at MinStep the step is accepted regardless of its
	// LTE, so integration always progresses.
	MinStep float64
	// MaxStep caps the adaptive step (default TStop/50), bounding how far
	// the controller coasts across slowly varying tails.
	MaxStep float64
	// MaxSteps bounds the total attempted steps (default 2,000,000) as a
	// runaway guard; exceeding it is an error.
	MaxSteps int
}

func (o TranOptions) withDefaults() (TranOptions, error) {
	if o.TStop <= 0 {
		return o, fmt.Errorf("spice: invalid transient window tStop=%g", o.TStop)
	}
	if o.Step == 0 && o.Adaptive {
		o.Step = o.TStop / 1000
	}
	if o.Step <= 0 || o.TStop < o.Step {
		return o, fmt.Errorf("spice: invalid transient window tStop=%g h=%g", o.TStop, o.Step)
	}
	if o.LTERel == 0 {
		o.LTERel = 1e-3
	}
	if o.LTEAbs == 0 {
		o.LTEAbs = 1e-6
	}
	if o.MinStep == 0 {
		o.MinStep = o.TStop * 1e-12
	}
	if o.MaxStep == 0 {
		o.MaxStep = o.TStop / 50
	}
	if o.MaxStep < o.MinStep {
		o.MaxStep = o.MinStep
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 2_000_000
	}
	return o, nil
}

// TranResult holds a transient analysis: node voltages over time. With the
// adaptive integrator the time grid is non-uniform — denser around source
// breakpoints and fast transitions, coarser across settled tails.
type TranResult struct {
	Times []float64
	// V[k][node] is the voltage of the node at Times[k], indexed by
	// netlist node id. The rows share backing blocks; each row's capacity
	// is its length, so appending to one never writes into another.
	V [][]float64
	// Rejected counts adaptive steps discarded by the LTE controller or by
	// a non-converged Newton solve (0 in fixed mode).
	Rejected int
}

// VNode returns the waveform of the named node.
func (r *TranResult) VNode(c *netlist.Circuit, name string) ([]float64, error) {
	i, ok := c.FindNode(name)
	if !ok {
		return nil, fmt.Errorf("spice: unknown node %q", name)
	}
	out := make([]float64, len(r.Times))
	for k := range r.Times {
		out[k] = r.V[k][i]
	}
	return out, nil
}

// Transient integrates the circuit from the DC operating point op over
// [0, tStop] with fixed step h and backward-Euler companion models — the
// seed behaviour, kept as a mode of TransientOpts.
func (e *Engine) Transient(op *OPResult, tStop, h float64) (*TranResult, error) {
	return e.TransientOpts(op, TranOptions{TStop: tStop, Step: h, Method: BackwardEuler})
}

// TransientOpts integrates the circuit from the DC operating point op under
// the given options: trapezoidal or backward-Euler companion models, fixed
// or LTE-controlled adaptive timesteps. Sources with an attached Pulse
// follow their waveform (their corner times become breakpoints the adaptive
// grid lands on exactly); others hold their DC value. Every Newton solve
// runs through the engine's cached stamp plan and preallocated scratch, so
// the dense and sparse backends share one integrator implementation.
func (e *Engine) TransientOpts(op *OPResult, opts TranOptions) (*TranResult, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	tr := &tranState{e: e, o: o}
	tr.init(op)
	if o.Adaptive {
		err = tr.runAdaptive()
	} else {
		err = tr.runFixed()
	}
	if err != nil {
		return nil, err
	}
	return tr.res, nil
}

// tranState is the per-run integration state. It is rebuilt from the
// operating point on every call, so repeated transients on one engine are
// independent and bit-identical — the determinism contract the batch
// evaluation pipeline relies on.
type tranState struct {
	e *Engine
	o TranOptions

	x      []float64 // MNA solution vector at the last accepted point
	xTry   []float64 // trial solution of the step being attempted
	vPrev  []float64 // node voltages (by node id) at the last accepted point
	icPrev []float64 // per-capacitor currents at the last accepted point (trap)
	res    *TranResult
	rows   []float64 // unused tail of the current block of V rows

	// bs is the engine's one-lane scratch and xs the one-lane iterate group
	// (xTry) every step's Newton run solves.
	bs *scratch
	xs [1][]float64

	// histN counts accepted points since the last breakpoint (or t=0); LTE
	// control needs 3 of them besides the candidate, and breakpoints reset
	// the count because a source-derivative discontinuity invalidates the
	// divided differences.
	histN int
}

func (tr *tranState) init(op *OPResult) {
	e := tr.e
	tr.x = make([]float64, e.size)
	tr.xTry = make([]float64, e.size)
	for i := 1; i < e.ckt.NumNodes(); i++ {
		tr.x[row(i)] = op.V[i]
	}
	copy(tr.x[e.nNodes:], op.BranchI)
	tr.vPrev = append([]float64(nil), op.V...)
	// At the DC operating point every capacitor is open: zero current.
	tr.icPrev = make([]float64, len(e.plan.caps))
	tr.bs = e.scratchFor(1)
	// Size the result for the fixed grid's exact point count. The adaptive
	// grid's count is not known ahead — a yield sample's step response
	// accepts 60–80 points — so it starts at adaptivePoints and lets
	// append take over.
	points := int(tr.o.TStop/tr.o.Step+0.5) + 1
	if tr.o.Adaptive {
		points = min(points, adaptivePoints)
	} else {
		tr.rows = make([]float64, points*e.ckt.NumNodes())
	}
	tr.res = &TranResult{
		Times: make([]float64, 0, points),
		V:     make([][]float64, 0, points),
	}
	tr.record(0)
}

// adaptivePoints is the initial result capacity of an adaptive run, in
// accepted points; rowBlock is how many V rows an adaptive run allocates
// at a time.
const (
	adaptivePoints = 128
	rowBlock       = 32
)

// record appends the accepted solution at time t to the result. The rows
// of V are carved out of blocks (the fixed grid's one exact block, or
// rowBlock rows at a time), so a run allocates per block, not per point.
func (tr *tranState) record(t float64) {
	nodes := tr.e.ckt.NumNodes()
	if len(tr.rows) < nodes {
		tr.rows = make([]float64, rowBlock*nodes)
	}
	vk := tr.rows[:nodes:nodes]
	tr.rows = tr.rows[nodes:]
	for i := 1; i < nodes; i++ {
		vk[i] = tr.x[row(i)]
	}
	tr.res.Times = append(tr.res.Times, t)
	tr.res.V = append(tr.res.V, vk)
}

// step attempts one step of size h ending at time t, leaving the trial
// solution in xTry — a one-lane Newton run. It does not commit any state.
func (tr *tranState) step(t, h float64) error {
	copy(tr.xTry, tr.x)
	ctx := stampCtx{
		gmin:     tr.e.opts.GminFinal,
		srcScale: 1,
		time:     t,
		h:        h,
		vPrev:    tr.vPrev,
		trap:     tr.o.Method == Trap,
		icPrev:   tr.icPrev,
	}
	tr.bs.st[0] = laneState{active: true}
	tr.xs[0] = tr.xTry
	tr.e.newton(tr.bs, tr.xs[:], ctx, noLane)
	return tr.bs.st[0].err
}

// accept commits the trial solution of a step of size h ending at time t:
// the trapezoidal capacitor currents advance (before vPrev is overwritten),
// the solution becomes the new expansion point and the point is recorded.
func (tr *tranState) accept(t, h float64) {
	nodeV := func(x []float64, n int) float64 {
		if n == netlist.Ground {
			return 0
		}
		return x[n-1]
	}
	if tr.o.Method == Trap {
		for i := range tr.e.plan.caps {
			s := &tr.e.plan.caps[i]
			g := 2 * s.dev.C / h
			dvNew := nodeV(tr.xTry, s.n1) - nodeV(tr.xTry, s.n2)
			dvOld := tr.vPrev[s.n1] - tr.vPrev[s.n2]
			tr.icPrev[i] = g*(dvNew-dvOld) - tr.icPrev[i]
		}
	}
	tr.x, tr.xTry = tr.xTry, tr.x
	for i := 1; i < tr.e.ckt.NumNodes(); i++ {
		tr.vPrev[i] = tr.x[row(i)]
	}
	tr.record(t)
	tr.histN++
}

// runFixed is the uniform-grid integration: round(TStop/Step) equal steps,
// each one Newton solve, no rejection. With Method BackwardEuler it
// reproduces the seed Transient bit for bit.
func (tr *tranState) runFixed() error {
	h := tr.o.Step
	steps := int(tr.o.TStop/h + 0.5)
	for s := 1; s <= steps; s++ {
		t := float64(s) * h
		if err := tr.step(t, h); err != nil {
			return fmt.Errorf("spice: transient step at t=%g: %w", t, err)
		}
		tr.accept(t, h)
	}
	return nil
}

// lteRatio estimates the local truncation error of the trial step ending at
// time t with step h, as the worst per-node ratio |LTE|/tol over the node
// voltages. The third (trapezoidal) or second (backward-Euler) derivative
// is approximated by divided differences over the last three accepted
// points and the candidate, so non-uniform step history is handled exactly.
func (tr *tranState) lteRatio(t, h float64) float64 {
	res := tr.res
	n := len(res.Times)
	t2, t1, t0 := res.Times[n-1], res.Times[n-2], res.Times[n-3]
	v2, v1, v0 := res.V[n-1], res.V[n-2], res.V[n-3]
	trap := tr.o.Method == Trap
	worst := 0.0
	for i := 1; i < tr.e.ckt.NumNodes(); i++ {
		v3 := tr.xTry[row(i)]
		dd32 := (v3 - v2[i]) / (t - t2)
		dd21 := (v2[i] - v1[i]) / (t2 - t1)
		dd2a := (dd32 - dd21) / (t - t1)
		var lte float64
		if trap {
			dd10 := (v1[i] - v0[i]) / (t1 - t0)
			dd2b := (dd21 - dd10) / (t2 - t0)
			dd3 := (dd2a - dd2b) / (t - t0)
			// LTE_trap = h³·v'''/12 with v''' ≈ 6·dd3.
			lte = h * h * h * math.Abs(dd3) / 2
		} else {
			// LTE_BE = h²·v''/2 with v'' ≈ 2·dd2.
			lte = h * h * math.Abs(dd2a)
		}
		tol := tr.o.LTEAbs + tr.o.LTERel*math.Max(math.Abs(v3), math.Abs(v2[i]))
		if r := lte / tol; r > worst {
			worst = r
		}
	}
	return worst
}

// runAdaptive is the LTE-controlled integration loop. Steps land exactly on
// source breakpoints (pulse corners), which also reset the step size and
// the divided-difference history; between breakpoints the classic
// accept/reject controller tracks the tolerance with the method-order
// exponent (1/3 trapezoidal, 1/2 backward Euler).
func (tr *tranState) runAdaptive() error {
	o := tr.o
	inv := 1.0 / 3
	if o.Method == BackwardEuler {
		inv = 1.0 / 2
	}
	bps, err := tr.e.breakpoints(o.TStop)
	if err != nil {
		return err
	}
	bpIdx := 0
	t := 0.0
	h := o.Step
	attempts := 0
	for t < o.TStop {
		attempts++
		if attempts > o.MaxSteps {
			return fmt.Errorf("spice: transient exceeded %d steps before t=%g (tStop=%g)", o.MaxSteps, t, o.TStop)
		}
		if h > o.MaxStep {
			h = o.MaxStep
		}
		if h < o.MinStep {
			h = o.MinStep
		}
		// Land exactly on the next breakpoint; the commit below then pins
		// t to it, so no float drift accumulates across corners.
		hitBp := false
		hStep := h
		if t+hStep >= bps[bpIdx] {
			hStep = bps[bpIdx] - t
			hitBp = true
		}
		tNew := t + hStep
		if hitBp {
			tNew = bps[bpIdx]
		}
		if err := tr.step(tNew, hStep); err != nil {
			tr.res.Rejected++
			if hStep <= o.MinStep {
				return fmt.Errorf("spice: transient step at t=%g (h=%g): %w", tNew, hStep, err)
			}
			h = hStep / 4
			continue
		}
		grow := 2.0
		if tr.histN >= 3 {
			r := tr.lteRatio(tNew, hStep)
			if r > 1 && hStep > o.MinStep {
				tr.res.Rejected++
				h = hStep * math.Max(0.9*math.Pow(r, -inv), 0.1)
				continue
			}
			if r > 1e-12 {
				grow = math.Min(2, 0.9*math.Pow(r, -inv))
				if grow < 0.5 {
					grow = 0.5
				}
			}
		}
		tr.accept(tNew, hStep)
		t = tNew
		if hitBp {
			// A source corner: restart small and rebuild the LTE history,
			// since the waveform derivative is discontinuous here.
			bpIdx++
			tr.histN = 0
			h = math.Min(o.Step, h)
		} else {
			h = hStep * grow
		}
	}
	return nil
}

// maxBreakpoints bounds the pulse-corner count of one transient window. A
// periodic pulse repeats its four corners every period; a period tiny
// relative to tStop would otherwise enumerate an unbounded corner list
// (and every corner forces a grid landing) before any step-count guard
// could fire, so the overflow is an explicit error instead.
const maxBreakpoints = 1 << 20

// breakpoints collects the source corner times inside (0, tStop) — the
// pulse edges of every V and I element, including periodic repeats — plus
// tStop itself, sorted ascending. The adaptive grid lands on each exactly.
func (e *Engine) breakpoints(tStop float64) ([]float64, error) {
	var bps []float64
	addPulse := func(p *netlist.Pulse) error {
		period := p.Period
		reps := 1
		if period > 0 {
			if tStop/period >= maxBreakpoints/4 {
				return fmt.Errorf("spice: pulse period %g enumerates over %d corners in tStop=%g", period, maxBreakpoints, tStop)
			}
			reps = int(tStop/period) + 1
		}
		for k := 0; k < reps; k++ {
			base := p.Delay + float64(k)*period
			for _, c := range [4]float64{0, p.Rise, p.Rise + p.Width, p.Rise + p.Width + p.Fall} {
				if tc := base + c; tc > 0 && tc < tStop {
					bps = append(bps, tc)
				}
			}
		}
		if len(bps) > maxBreakpoints {
			return fmt.Errorf("spice: transient window enumerates over %d pulse corners", maxBreakpoints)
		}
		return nil
	}
	for _, d := range e.ckt.Devices {
		if p := netlist.DevicePulse(d); p != nil {
			if err := addPulse(p); err != nil {
				return nil, err
			}
		}
	}
	sort.Float64s(bps)
	// Dedupe corners that coincide (e.g. zero rise times) within a relative
	// sliver, which would otherwise force degenerate steps — including
	// against tStop itself, appended last: a corner landing a few ulps
	// before the window end must not leave a sub-MinStep final step.
	eps := tStop * 1e-12
	out := bps[:0]
	last := math.Inf(-1)
	for _, b := range bps {
		if b-last > eps && tStop-b > eps {
			out = append(out, b)
			last = b
		}
	}
	return append(out, tStop), nil
}
