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
// the dense and sparse backends share one integrator implementation. It is
// the one-lane TransientBatch.
func (e *Engine) TransientOpts(op *OPResult, opts TranOptions) (*TranResult, error) {
	res, errs := e.TransientBatch([]*OPResult{op}, opts, noLane)
	return res[0], errs[0]
}

// TransientBatch integrates the transients of up to len(ops) samples as
// one lane group, each from its own operating point under its LaneSetter
// state, and each lane bit-identical to TransientOpts on its sample.
// ops[l] == nil skips lane l (a sample whose earlier analyses failed). The
// lanes run in rounds: every unfinished lane attempts its own next step —
// its own time point, step size and history — in one lockstep Newton run,
// then applies its own accept, reject and breakpoint decisions. A lane that
// fails (a step that does not converge at MinStep, or MaxSteps exceeded)
// reports its error alone and leaves the group; the others run on.
func (e *Engine) TransientBatch(ops []*OPResult, opts TranOptions, set LaneSetter) ([]*TranResult, []error) {
	k := len(ops)
	if e.sym == nil && k > 1 {
		return lanewise(k, func(l int) (*TranResult, error) {
			res, errs := e.TransientBatch(ops[l:l+1], opts, func(int) { set(l) })
			return res[0], errs[0]
		})
	}
	res := make([]*TranResult, k)
	errs := make([]error, k)
	o, err := opts.withDefaults()
	if err != nil {
		for l, op := range ops {
			if op != nil {
				errs[l] = err
			}
		}
		return res, errs
	}
	bs := e.scratchFor(k)
	g := bs.tranGroup(e)
	g.o = o
	for l, op := range ops {
		tl := &g.lanes[l]
		tl.running, tl.err = false, nil
		if op == nil {
			continue
		}
		set(l)
		if errs[l] = g.start(tl, op); errs[l] == nil {
			res[l] = tl.res
		}
	}
	ctx := stampCtx{gmin: e.opts.GminFinal, srcScale: 1, trap: o.Method == Trap}
	for {
		live := false
		for l := range g.lanes {
			bs.st[l] = laneState{}
			tl := &g.lanes[l]
			if !tl.running || !g.propose(tl) {
				continue
			}
			copy(tl.xTry, tl.x)
			bs.st[l].active = true
			g.steps[l] = laneStep{time: tl.tNew, h: tl.hStep, vPrev: tl.vPrev, icPrev: tl.icPrev}
			live = true
		}
		if !live {
			break
		}
		e.newton(bs, g.xs, ctx, g.steps, set)
		for l := range g.lanes {
			if bs.st[l].active {
				g.settle(&g.lanes[l], bs.st[l].err)
			}
		}
	}
	for l := range g.lanes {
		if tl := &g.lanes[l]; tl.err != nil {
			res[l], errs[l] = nil, tl.err
		}
	}
	return res, errs
}

// tranGroup is the integration state of one transient lane group. It lives
// in the engine's scratch for its width and is rebuilt from the operating
// points on every call, so repeated transients on one engine are
// independent and bit-identical — the determinism contract the batch
// evaluation pipeline relies on.
type tranGroup struct {
	e     *Engine
	o     TranOptions
	lanes []tranLane
	xs    [][]float64 // the lanes' trial solutions, the Newton iterates
	steps []laneStep  // the lanes' step contexts for the Newton run
}

// tranLane is one lane's integration: its solution history, its result
// and its step controller.
type tranLane struct {
	x      []float64 // MNA solution vector at the last accepted point
	xTry   []float64 // trial solution of the step being attempted
	vPrev  []float64 // node voltages (by node id) at the last accepted point
	icPrev []float64 // per-capacitor currents at the last accepted point (trap)
	res    *TranResult
	rows   []float64 // unused tail of the current block of V rows

	// histN counts accepted points since the last breakpoint (or t=0); LTE
	// control needs 3 of them besides the candidate, and breakpoints reset
	// the count because a source-derivative discontinuity invalidates the
	// divided differences.
	histN int

	running bool  // still integrating
	err     error // why the lane stopped early
	t, h    float64
	steps   int       // attempted steps (adaptive) or taken steps (fixed)
	bps     []float64 // breakpoints, tStop last (adaptive)
	bpIdx   int       // next breakpoint

	// The step being attempted: it ends at tNew, is hStep long and lands
	// on the next breakpoint when hitBp.
	tNew, hStep float64
	hitBp       bool
}

// tranGroup returns the scratch's transient group, allocated on the first
// transient of this width.
func (bs *scratch) tranGroup(e *Engine) *tranGroup {
	if bs.tran != nil {
		return bs.tran
	}
	g := &tranGroup{
		e:     e,
		lanes: make([]tranLane, bs.k),
		xs:    make([][]float64, bs.k),
		steps: make([]laneStep, bs.k),
	}
	for l := range g.lanes {
		tl := &g.lanes[l]
		tl.x = make([]float64, e.size)
		tl.xTry = make([]float64, e.size)
		tl.vPrev = make([]float64, e.ckt.NumNodes())
		tl.icPrev = make([]float64, len(e.plan.caps))
		g.xs[l] = tl.xTry
	}
	bs.tran = g
	return g
}

// start sets a lane up at its operating point. The lane's state is
// installed: the breakpoints come from its own sources.
func (g *tranGroup) start(tl *tranLane, op *OPResult) error {
	e, o := g.e, g.o
	*tl = tranLane{x: tl.x, xTry: tl.xTry, vPrev: tl.vPrev, icPrev: tl.icPrev, h: o.Step}
	if o.Adaptive {
		bps, err := e.breakpoints(o.TStop)
		if err != nil {
			return err
		}
		tl.bps = bps
	}
	for i := 1; i < e.ckt.NumNodes(); i++ {
		tl.x[row(i)] = op.V[i]
	}
	copy(tl.x[e.nNodes:], op.BranchI)
	copy(tl.vPrev, op.V)
	// At the DC operating point every capacitor is open: zero current.
	clear(tl.icPrev)
	// Size the result for the fixed grid's exact point count. The adaptive
	// grid's count is not known ahead — a yield sample's step response
	// accepts 60–80 points — so it starts at adaptivePoints and lets
	// append take over.
	points := int(o.TStop/o.Step+0.5) + 1
	if o.Adaptive {
		points = min(points, adaptivePoints)
	} else {
		tl.rows = make([]float64, points*e.ckt.NumNodes())
	}
	tl.res = &TranResult{
		Times: make([]float64, 0, points),
		V:     make([][]float64, 0, points),
	}
	g.record(tl, 0)
	tl.running = true
	return nil
}

// adaptivePoints is the initial result capacity of an adaptive run, in
// accepted points; rowBlock is how many V rows an adaptive run allocates
// at a time.
const (
	adaptivePoints = 128
	rowBlock       = 32
)

// record appends the lane's accepted solution at time t to its result. The
// rows of V are carved out of blocks (the fixed grid's one exact block, or
// rowBlock rows at a time), so a run allocates per block, not per point.
func (g *tranGroup) record(tl *tranLane, t float64) {
	nodes := g.e.ckt.NumNodes()
	if len(tl.rows) < nodes {
		tl.rows = make([]float64, rowBlock*nodes)
	}
	vk := tl.rows[:nodes:nodes]
	tl.rows = tl.rows[nodes:]
	for i := 1; i < nodes; i++ {
		vk[i] = tl.x[row(i)]
	}
	tl.res.Times = append(tl.res.Times, t)
	tl.res.V = append(tl.res.V, vk)
}

// fail stops the lane with err.
func (tl *tranLane) fail(err error) {
	tl.running, tl.err = false, err
}

// propose sets up the lane's next step (tNew, hStep, hitBp) and reports
// whether it attempts one. The fixed grid takes round(TStop/Step) equal
// steps. The adaptive controller clamps its step to [MinStep, MaxStep] and
// lands exactly on the next breakpoint; exceeding MaxSteps stops the lane.
func (g *tranGroup) propose(tl *tranLane) bool {
	o := g.o
	if !o.Adaptive {
		tl.hStep = o.Step
		tl.tNew = float64(tl.steps+1) * o.Step
		return true
	}
	tl.steps++
	if tl.steps > o.MaxSteps {
		tl.fail(fmt.Errorf("spice: transient exceeded %d steps before t=%g (tStop=%g)", o.MaxSteps, tl.t, o.TStop))
		return false
	}
	if tl.h > o.MaxStep {
		tl.h = o.MaxStep
	}
	if tl.h < o.MinStep {
		tl.h = o.MinStep
	}
	// Land exactly on the next breakpoint; settle then pins t to it, so no
	// float drift accumulates across corners.
	bp := tl.bps[tl.bpIdx]
	tl.hitBp = false
	tl.hStep = tl.h
	if tl.t+tl.hStep >= bp {
		tl.hStep = bp - tl.t
		tl.hitBp = true
	}
	tl.tNew = tl.t + tl.hStep
	if tl.hitBp {
		tl.tNew = bp
	}
	return true
}

// settle applies the outcome err of the Newton run on the lane's proposed
// step. The fixed grid accepts every converged step and fails on the
// first that does not; with Method BackwardEuler it reproduces the seed
// Transient bit for bit. The adaptive controller is the classic
// accept/reject loop on the LTE, with the method-order exponent (1/3
// trapezoidal, 1/2 backward Euler); a breakpoint resets the step size and
// the divided-difference history.
func (g *tranGroup) settle(tl *tranLane, err error) {
	o := g.o
	if !o.Adaptive {
		if err != nil {
			tl.fail(fmt.Errorf("spice: transient step at t=%g: %w", tl.tNew, err))
			return
		}
		g.accept(tl, tl.tNew, tl.hStep)
		tl.steps++
		tl.running = tl.steps < int(o.TStop/o.Step+0.5)
		return
	}
	inv := 1.0 / 3
	if o.Method == BackwardEuler {
		inv = 1.0 / 2
	}
	tNew, hStep := tl.tNew, tl.hStep
	if err != nil {
		tl.res.Rejected++
		if hStep <= o.MinStep {
			tl.fail(fmt.Errorf("spice: transient step at t=%g (h=%g): %w", tNew, hStep, err))
			return
		}
		tl.h = hStep / 4
		return
	}
	grow := 2.0
	if tl.histN >= 3 {
		r := g.lteRatio(tl, tNew, hStep)
		if r > 1 && hStep > o.MinStep {
			tl.res.Rejected++
			tl.h = hStep * math.Max(0.9*math.Pow(r, -inv), 0.1)
			return
		}
		if r > 1e-12 {
			grow = math.Min(2, 0.9*math.Pow(r, -inv))
			if grow < 0.5 {
				grow = 0.5
			}
		}
	}
	g.accept(tl, tNew, hStep)
	tl.t = tNew
	if tl.hitBp {
		// A source corner: restart small and rebuild the LTE history,
		// since the waveform derivative is discontinuous here.
		tl.bpIdx++
		tl.histN = 0
		tl.h = math.Min(o.Step, tl.h)
	} else {
		tl.h = hStep * grow
	}
	tl.running = tl.t < o.TStop
}

// accept commits the lane's trial solution of a step of size h ending at
// time t: the trapezoidal capacitor currents advance (before vPrev is
// overwritten), the solution becomes the new expansion point and the point
// is recorded.
func (g *tranGroup) accept(tl *tranLane, t, h float64) {
	e := g.e
	nodeV := func(x []float64, n int) float64 {
		if n == netlist.Ground {
			return 0
		}
		return x[n-1]
	}
	if g.o.Method == Trap {
		for i := range e.plan.caps {
			s := &e.plan.caps[i]
			gc := 2 * s.dev.C / h
			dvNew := nodeV(tl.xTry, s.n1) - nodeV(tl.xTry, s.n2)
			dvOld := tl.vPrev[s.n1] - tl.vPrev[s.n2]
			tl.icPrev[i] = gc*(dvNew-dvOld) - tl.icPrev[i]
		}
	}
	copy(tl.x, tl.xTry)
	for i := 1; i < e.ckt.NumNodes(); i++ {
		tl.vPrev[i] = tl.x[row(i)]
	}
	g.record(tl, t)
	tl.histN++
}

// lteRatio estimates the local truncation error of the lane's trial step
// ending at time t with step h, as the worst per-node ratio |LTE|/tol over
// the node voltages. The third (trapezoidal) or second (backward-Euler)
// derivative is approximated by divided differences over the last three
// accepted points and the candidate, so non-uniform step history is
// handled exactly.
func (g *tranGroup) lteRatio(tl *tranLane, t, h float64) float64 {
	res, o := tl.res, g.o
	n := len(res.Times)
	t2, t1, t0 := res.Times[n-1], res.Times[n-2], res.Times[n-3]
	v2, v1, v0 := res.V[n-1], res.V[n-2], res.V[n-3]
	trap := o.Method == Trap
	worst := 0.0
	for i := 1; i < g.e.ckt.NumNodes(); i++ {
		v3 := tl.xTry[row(i)]
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
		tol := o.LTEAbs + o.LTERel*math.Max(math.Abs(v3), math.Abs(v2[i]))
		if r := lte / tol; r > worst {
			worst = r
		}
	}
	return worst
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
