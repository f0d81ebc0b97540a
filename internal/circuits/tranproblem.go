package circuits

import (
	"fmt"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/spice"
)

// This file adds the time domain to the scenario suite: step-response
// problems whose pass/fail oracle combines AC measures (gain, bandwidth,
// phase margin) with transient measures (slew rate, settling time,
// overshoot) computed from the adaptive trapezoidal integrator — the
// spec mix real sizing flows score candidates on.
//
// # Determinism contract
//
// Unlike the AC-only spice problems, the transient problems never
// warm-start the DC solve from a previous sample. The adaptive integrator's
// accept/reject decisions are discrete: a low-bit difference in the DC
// operating point (warm vs cold Newton both converge, to different last
// bits) could flip one LTE comparison, fork the step grid and move a
// measure by the LTE tolerance — easily enough to flip a borderline
// sample's pass/fail and break the batched-vs-fallback bit-identity the
// yield pipeline asserts per scenario. Cold-starting every sample makes the
// per-sample result a pure function of (x, ξ), so every execution path —
// point-wise, batched, any worker count, served — lands on the same bits.
// The batch path amortizes what dominates per-design cost: netlist
// construction, engine assembly and the sparse symbolic factorization; the
// lockstep kernel additionally batches the cold DC solves and AC sweeps of
// K samples per traversal (bit-identical to the scalar solves by the lane
// contract), while the adaptive transient integration stays scalar per
// lane — its step grid is per-sample, so lanes have nothing to share.

// TranConfig is the embeddable transient-window configuration of a
// time-domain problem: the integration window, the initial (adaptive) or
// uniform (fixed) step, and the integrator mode. It is the knob the
// service's tran request options and the CLIs' -tstop/-tstep/-tranmode
// flags resolve against.
type TranConfig struct {
	tstop float64
	step  float64
	fixed bool
}

// TranWindow reports the resolved transient window: stop time, step and
// whether the integrator runs the fixed-step mode instead of the adaptive
// LTE-controlled one.
func (c *TranConfig) TranWindow() (tstop, step float64, fixed bool) {
	return c.tstop, c.step, c.fixed
}

// SetTranWindow overrides the transient window. All values must be fully
// resolved: tstop > 0 and 0 < step ≤ tstop.
func (c *TranConfig) SetTranWindow(tstop, step float64, fixed bool) error {
	if tstop <= 0 || step <= 0 || step > tstop {
		return fmt.Errorf("circuits: invalid transient window tstop=%g step=%g", tstop, step)
	}
	c.tstop = tstop
	c.step = step
	c.fixed = fixed
	return nil
}

// tranOptions builds the integrator options for the configured window.
func (c *TranConfig) tranOptions() spice.TranOptions {
	return spice.TranOptions{TStop: c.tstop, Step: c.step, Adaptive: !c.fixed}
}

// stepMeasures reduces a transient result to [slew V/s, 1% settling s,
// overshoot]. Failure shapes degrade smoothly instead of erroring: a
// waveform that never settles inside the window reports the window length
// itself (violating any tighter bound), and a collapsed swing reports zero
// slew — both the transient analogue of the zero-GBW convention the AC
// problems use, so the yield oracle counts a broken chip rather than a
// broken simulator.
func (c *TranConfig) stepMeasures(ckt *netlist.Circuit, tr *spice.TranResult, node string, t0 float64) (slew, tSettle, overshoot float64, err error) {
	wave, err := tr.VNode(ckt, node)
	if err != nil {
		return 0, 0, 0, err
	}
	st, err := measure.NewStep(tr.Times, wave, t0)
	if err != nil {
		return 0, 0, 0, err
	}
	if s, serr := st.SlewRate(); serr == nil {
		slew = s
	}
	tSettle = c.tstop
	if ts, serr := st.SettlingTime(0.01); serr == nil {
		tSettle = ts
	}
	return slew, tSettle, st.Overshoot(), nil
}

// --- Common-source step response ---------------------------------------

// csTran* are the step-drive parameters of the common-source transient
// testbench: a 2 mV gate step (small-signal: ≈0.1 V output swing at the
// reference gain) applied shortly after t=0 through a 1 ns edge.
const (
	csTranAmp   = 2e-3
	csTranDelay = 50e-9
	csTranRise  = 1e-9
)

// CommonSourceTran is the quickstart stage scored on combined AC and
// time-domain specs: per Monte-Carlo sample the perturbed transistor-level
// testbench is solved for its DC operating point, swept in AC (gain,
// bandwidth) and stepped in time through the adaptive trapezoidal
// integrator (slew, settling, overshoot). Performance vector, aligned with
// Specs(): [A0 dB, GBW Hz, slew V/s, ts1% s, overshoot].
type CommonSourceTran struct {
	TranConfig
	spice *CommonSourceSpice
	specs []constraint.Spec
}

// NewCommonSourceTran builds the time-domain quickstart problem. The spec
// bounds are calibrated so each measure actively gates samples at the
// reference design (the transistor-level testbench clears the behavioural
// problem's paper bounds with huge margin, which would leave an all-pass
// oracle): the 2000-sample reference yield is ≈95.7% (pinned in
// tranproblem_test.go).
func NewCommonSourceTran() *CommonSourceTran {
	p := &CommonSourceTran{
		TranConfig: TranConfig{tstop: 4e-6, step: 4e-9},
		spice:      NewCommonSourceSpice(),
	}
	p.specs = []constraint.Spec{
		{Name: "A0", Sense: constraint.AtLeast, Bound: 40.5, Unit: "dB", Scale: 40.5},
		{Name: "GBW", Sense: constraint.AtLeast, Bound: 85e6, Unit: "Hz"},
		{Name: "slew", Sense: constraint.AtLeast, Bound: 4.9e5, Unit: "V/s"},
		{Name: "ts1%", Sense: constraint.AtMost, Bound: 8.6e-7, Unit: "s"},
		{Name: "overshoot", Sense: constraint.AtMost, Bound: 0.05, Scale: 0.05},
	}
	return p
}

// SetLanes pins the underlying engine's lockstep lane count (0 = auto,
// 1 = scalar path). It returns p for chaining.
func (p *CommonSourceTran) SetLanes(k int) *CommonSourceTran {
	p.spice.SetLanes(k)
	return p
}

// Name implements problem.Problem.
func (p *CommonSourceTran) Name() string { return "common-source-0.35um-tran" }

// Dim implements problem.Problem.
func (p *CommonSourceTran) Dim() int { return p.spice.Dim() }

// Bounds implements problem.Problem.
func (p *CommonSourceTran) Bounds() (lo, hi []float64) { return p.spice.Bounds() }

// Specs implements problem.Problem.
func (p *CommonSourceTran) Specs() []constraint.Spec { return p.specs }

// VarDim implements problem.Problem.
func (p *CommonSourceTran) VarDim() int { return p.spice.VarDim() }

// ReferenceDesign returns the behavioural problem's reference sizing.
func (p *CommonSourceTran) ReferenceDesign() []float64 { return p.spice.ReferenceDesign() }

// setSample writes one sample's engine state: the perturbed cards, the
// input-servo bias and the step drive riding on it.
func (p *CommonSourceTran) setSample(ctx *spiceContext, xi []float64) {
	inner := ctx.p.inner
	ctx.setCards(xi)
	id := clampMin(mirror(ctx.bias, ctx.load, ctx.ib/mirrorRatio, inner.tech.VDD/2), 1e-8)
	vg := ctx.drv.VgsForID(id, 0)
	ctx.vin.DC = vg
	ctx.vin.Pulse.V1 = vg
	ctx.vin.Pulse.V2 = vg + csTranAmp
}

// tranMeasures reduces one sample's solved operating point and probed AC
// sweep to the performance vector, running the transient integration on the
// way. It must be called with the sample's engine state installed — the
// integrator re-stamps the devices every step.
func (p *CommonSourceTran) tranMeasures(ctx *spiceContext, op *spice.OPResult, h []complex128) ([]float64, error) {
	bode := measure.NewBode(ctx.freqs[:len(h)], h)
	a0dB := bode.DCGainDB()
	gbw, err := bode.GainBandwidth()
	if err != nil {
		gbw = 0
	}

	tr, err := ctx.eng.TransientOpts(op, p.tranOptions())
	if err != nil {
		return nil, fmt.Errorf("common-source-tran: %w", err)
	}
	slew, ts, os, err := p.stepMeasures(ctx.ckt, tr, "out", csTranDelay)
	if err != nil {
		return nil, fmt.Errorf("common-source-tran: %w", err)
	}
	return []float64{a0dB, gbw, slew, ts, os}, nil
}

// evalTran runs one sample through a compiled context: rewrite the cards,
// re-bias the input servo and its step drive, cold-solve DC (see the
// determinism contract above), sweep AC and integrate the step response.
func (p *CommonSourceTran) evalTran(ctx *spiceContext, xi []float64) ([]float64, error) {
	if err := ctx.p.inner.space.CheckVector(xi); err != nil {
		return nil, err
	}
	p.setSample(ctx, xi)
	op, err := ctx.eng.DCOperatingPoint()
	if err != nil {
		return nil, fmt.Errorf("common-source-tran: %w", err)
	}
	h, err := ctx.eng.ACProbe(op, ctx.freqs, ctx.probe)
	if err != nil {
		return nil, fmt.Errorf("common-source-tran: %w", err)
	}
	return p.tranMeasures(ctx, op, h)
}

// compile builds the per-design context: the AC testbench of the spice
// problem plus the step drive on the input servo.
func (p *CommonSourceTran) compile(x []float64) (*spiceContext, error) {
	ctx, err := p.spice.compile(x)
	if err != nil {
		return nil, err
	}
	ctx.vin.Pulse = &netlist.Pulse{Delay: csTranDelay, Rise: csTranRise, Width: 1}
	return ctx, nil
}

// Evaluate implements problem.Problem — bit-identical to any batch path by
// the cold-start contract.
func (p *CommonSourceTran) Evaluate(x, xi []float64) ([]float64, error) {
	ctx, err := p.compile(x)
	if err != nil {
		return nil, err
	}
	return p.evalTran(ctx, xi)
}

// csTranLaneState is the complete per-sample engine state of one lockstep
// lane of the step-response testbench: the three perturbed cards plus the
// servo bias and the step levels riding on it.
type csTranLaneState struct {
	drv, load, bias mos.Params
	vinDC, v1, v2   float64
}

// EvaluateBatch implements problem.BatchEvaluator: one compiled context
// (netlist, engine, stamp plan) per design, every sample cold-started. The
// cold DC solves and AC sweeps of K samples run through the lockstep kernel
// (bit-identical to the scalar solves by the lane contract); the adaptive
// transient integration runs scalar per lane under that lane's state.
func (p *CommonSourceTran) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	perfs := make([][]float64, len(xis))
	errs := make([]error, len(xis))
	ctx, err := p.compile(x)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return perfs, errs
	}
	k := ctx.eng.Lanes()
	if k <= 1 {
		for i, xi := range xis {
			perfs[i], errs[i] = p.evalTran(ctx, xi)
		}
		return perfs, errs
	}
	lanes := make([]csTranLaneState, k)
	active := make([]bool, k)
	set := func(l int) {
		*ctx.drvCard = lanes[l].drv
		*ctx.loadCard = lanes[l].load
		*ctx.biasCard = lanes[l].bias
		ctx.vin.DC = lanes[l].vinDC
		ctx.vin.Pulse.V1 = lanes[l].v1
		ctx.vin.Pulse.V2 = lanes[l].v2
	}
	for g := 0; g < len(xis); g += k {
		m := min(k, len(xis)-g)
		for l := 0; l < k; l++ {
			active[l] = false
		}
		for l := 0; l < m; l++ {
			xi := xis[g+l]
			if err := ctx.p.inner.space.CheckVector(xi); err != nil {
				errs[g+l] = err
				continue
			}
			p.setSample(ctx, xi)
			lanes[l] = csTranLaneState{
				drv: *ctx.drvCard, load: *ctx.loadCard, bias: *ctx.biasCard,
				vinDC: ctx.vin.DC, v1: ctx.vin.Pulse.V1, v2: ctx.vin.Pulse.V2,
			}
			active[l] = true
		}
		ops, dcErrs := ctx.eng.DCOperatingPointBatch(active, set)
		hs, acErrs := ctx.eng.ACBatchProbe(ops, ctx.freqs, ctx.probe, set)
		for l := 0; l < m; l++ {
			if !active[l] {
				continue
			}
			switch {
			case dcErrs[l] != nil:
				errs[g+l] = fmt.Errorf("common-source-tran: %w", dcErrs[l])
			case acErrs[l] != nil:
				errs[g+l] = fmt.Errorf("common-source-tran: %w", acErrs[l])
			default:
				set(l)
				perfs[g+l], errs[g+l] = p.tranMeasures(ctx, ops[l], hs[l])
			}
		}
	}
	return perfs, errs
}

// --- Folded-cascode step response --------------------------------------

// fcTran* are the step-drive parameters of the folded-cascode transient
// testbench: a 0.1 mV input step (the open-loop gain is ~70 dB, so the
// output moves ~0.3 V — large enough to measure, small enough to stay in
// the linear output range).
const (
	fcTranAmp   = 1e-4
	fcTranDelay = 2e-6
	fcTranRise  = 10e-9
)

// FoldedCascodeTran is the folded-cascode half-circuit testbench scored on
// combined AC and time-domain specs. Performance vector, aligned with
// Specs(): [A0 dB, GBW Hz, PM deg, slew V/s, ts1% s, overshoot]. Note the
// settling figure is the open-loop one (the testbench has no feedback
// loop), which is dominated by A0/GBW — it bounds the dominant-pole time
// constant, exactly the figure the paper's AC specs only constrain
// indirectly.
type FoldedCascodeTran struct {
	TranConfig
	spice *FoldedCascodeSpice
	specs []constraint.Spec
}

// NewFoldedCascodeTran builds the time-domain folded-cascode problem. As
// with the quickstart variant, the bounds are calibrated to the half-
// circuit testbench (whose open-loop gain far exceeds the paper's
// differential spec) so every measure actively gates samples: the
// 500-sample reference yield is ≈98% (pinned in tranproblem_test.go).
func NewFoldedCascodeTran() *FoldedCascodeTran {
	p := &FoldedCascodeTran{
		TranConfig: TranConfig{tstop: 100e-6, step: 100e-9},
		spice:      NewFoldedCascodeSpice(),
	}
	p.specs = []constraint.Spec{
		{Name: "A0", Sense: constraint.AtLeast, Bound: 85, Unit: "dB", Scale: 85},
		{Name: "GBW", Sense: constraint.AtLeast, Bound: 85e6, Unit: "Hz"},
		{Name: "PM", Sense: constraint.AtLeast, Bound: 85, Unit: "deg"},
		{Name: "slew", Sense: constraint.AtLeast, Bound: 4.5e4, Unit: "V/s"},
		{Name: "ts1%", Sense: constraint.AtMost, Bound: 30e-6, Unit: "s"},
		{Name: "overshoot", Sense: constraint.AtMost, Bound: 0.05, Scale: 0.05},
	}
	return p
}

// SetLanes pins the underlying engine's lockstep lane count (0 = auto,
// 1 = scalar path). It returns p for chaining.
func (p *FoldedCascodeTran) SetLanes(k int) *FoldedCascodeTran {
	p.spice.SetLanes(k)
	return p
}

// Name implements problem.Problem.
func (p *FoldedCascodeTran) Name() string { return "folded-cascode-0.35um-tran" }

// Dim implements problem.Problem.
func (p *FoldedCascodeTran) Dim() int { return p.spice.Dim() }

// Bounds implements problem.Problem.
func (p *FoldedCascodeTran) Bounds() (lo, hi []float64) { return p.spice.Bounds() }

// Specs implements problem.Problem.
func (p *FoldedCascodeTran) Specs() []constraint.Spec { return p.specs }

// VarDim implements problem.Problem.
func (p *FoldedCascodeTran) VarDim() int { return p.spice.VarDim() }

// ReferenceDesign returns the behavioural problem's reference sizing.
func (p *FoldedCascodeTran) ReferenceDesign() []float64 { return p.spice.ReferenceDesign() }

// compile builds the per-design context and locates the input servo the
// step drive rides on.
func (p *FoldedCascodeTran) compile(x []float64) (*fcSpiceContext, *netlist.VSource, error) {
	ctx, err := p.spice.compile(x)
	if err != nil {
		return nil, nil, err
	}
	var vin *netlist.VSource
	for _, d := range ctx.ckt.Devices {
		if v, ok := d.(*netlist.VSource); ok && v.Name == "VIN" {
			vin = v
			break
		}
	}
	if vin == nil {
		return nil, nil, fmt.Errorf("folded-cascode-tran: testbench has no VIN source")
	}
	vin.Pulse = &netlist.Pulse{
		V1: vin.DC, V2: vin.DC + fcTranAmp,
		Delay: fcTranDelay, Rise: fcTranRise, Width: 1,
	}
	return ctx, vin, nil
}

// tranMeasures reduces one sample's solved operating point and probed AC
// sweep to the performance vector, running the transient integration on the
// way. It must be called with the sample's cards installed — the
// integrator re-stamps the devices every step.
func (p *FoldedCascodeTran) tranMeasures(ctx *fcSpiceContext, op *spice.OPResult, h []complex128) ([]float64, error) {
	bode := measure.NewBode(ctx.freqs[:len(h)], h)
	a0dB := bode.DCGainDB()
	gbw, err := bode.GainBandwidth()
	if err != nil {
		gbw = 0
	}
	pm := 0.0
	if gbw > 0 {
		if m, err := bode.PhaseMargin(); err == nil {
			pm = m
		}
	}

	tr, err := ctx.eng.TransientOpts(op, p.tranOptions())
	if err != nil {
		return nil, fmt.Errorf("folded-cascode-tran: %w", err)
	}
	slew, ts, os, err := p.stepMeasures(ctx.ckt, tr, "out", fcTranDelay)
	if err != nil {
		return nil, fmt.Errorf("folded-cascode-tran: %w", err)
	}
	return []float64{a0dB, gbw, pm, slew, ts, os}, nil
}

// evalTran runs one sample: rewrite the cards, cold-solve DC, sweep AC and
// integrate the step response.
func (p *FoldedCascodeTran) evalTran(ctx *fcSpiceContext, xi []float64) ([]float64, error) {
	if err := ctx.p.inner.space.CheckVector(xi); err != nil {
		return nil, err
	}
	ctx.setCards(xi)
	op, err := ctx.eng.DCOperatingPoint()
	if err != nil {
		return nil, fmt.Errorf("folded-cascode-tran: %w", err)
	}
	h, err := ctx.eng.ACProbe(op, ctx.freqs, ctx.probe)
	if err != nil {
		return nil, fmt.Errorf("folded-cascode-tran: %w", err)
	}
	return p.tranMeasures(ctx, op, h)
}

// Evaluate implements problem.Problem — bit-identical to any batch path by
// the cold-start contract.
func (p *FoldedCascodeTran) Evaluate(x, xi []float64) ([]float64, error) {
	ctx, _, err := p.compile(x)
	if err != nil {
		return nil, err
	}
	return p.evalTran(ctx, xi)
}

// EvaluateBatch implements problem.BatchEvaluator: one compiled context
// (netlist, engine, symbolic factorization) per design, every sample
// cold-started. The cold DC solves and AC sweeps of K samples run through
// the lockstep kernel (bit-identical to the scalar solves by the lane
// contract); the adaptive transient integration runs scalar per lane under
// that lane's cards — the step drive is armed once at compile, so the cards
// are the whole lane state.
func (p *FoldedCascodeTran) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	perfs := make([][]float64, len(xis))
	errs := make([]error, len(xis))
	ctx, _, err := p.compile(x)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return perfs, errs
	}
	k := ctx.eng.Lanes()
	if k <= 1 {
		for i, xi := range xis {
			perfs[i], errs[i] = p.evalTran(ctx, xi)
		}
		return perfs, errs
	}
	nc := len(ctx.cards)
	lanes := make([][]mos.Params, k)
	for l := range lanes {
		lanes[l] = make([]mos.Params, nc)
	}
	active := make([]bool, k)
	set := func(l int) {
		for i := 0; i < nc; i++ {
			*ctx.cards[i].card = lanes[l][i]
		}
	}
	for g := 0; g < len(xis); g += k {
		m := min(k, len(xis)-g)
		for l := 0; l < k; l++ {
			active[l] = false
		}
		for l := 0; l < m; l++ {
			xi := xis[g+l]
			if err := ctx.p.inner.space.CheckVector(xi); err != nil {
				errs[g+l] = err
				continue
			}
			ctx.setCards(xi)
			for i := 0; i < nc; i++ {
				lanes[l][i] = *ctx.cards[i].card
			}
			active[l] = true
		}
		ops, dcErrs := ctx.eng.DCOperatingPointBatch(active, set)
		hs, acErrs := ctx.eng.ACBatchProbe(ops, ctx.freqs, ctx.probe, set)
		for l := 0; l < m; l++ {
			if !active[l] {
				continue
			}
			switch {
			case dcErrs[l] != nil:
				errs[g+l] = fmt.Errorf("folded-cascode-tran: %w", dcErrs[l])
			case acErrs[l] != nil:
				errs[g+l] = fmt.Errorf("folded-cascode-tran: %w", acErrs[l])
			default:
				set(l)
				perfs[g+l], errs[g+l] = p.tranMeasures(ctx, ops[l], hs[l])
			}
		}
	}
	return perfs, errs
}

// attachPulse locates the named V source and arms it with a step from its
// DC value — how the nominal tran testbenches of the registry are built
// (netlistsim's -tran mode then drives the same waveform the yield
// scenarios measure).
func attachPulse(c *netlist.Circuit, name string, amp, delay, rise float64) error {
	for _, d := range c.Devices {
		if v, ok := d.(*netlist.VSource); ok && v.Name == name {
			v.Pulse = &netlist.Pulse{V1: v.DC, V2: v.DC + amp, Delay: delay, Rise: rise, Width: 1}
			return nil
		}
	}
	return fmt.Errorf("circuits: no %q source to attach the step to", name)
}

// TranNetlist builds the nominal step-response testbench at design x.
func (p *CommonSourceTran) TranNetlist(x []float64) (*netlist.Circuit, map[string]float64, error) {
	c, err := NewCommonSource().CommonSourceNetlist(x)
	if err != nil {
		return nil, nil, err
	}
	return c, nil, attachPulse(c, "VIN", csTranAmp, csTranDelay, csTranRise)
}

// TranNetlist builds the nominal step-response testbench at design x.
func (p *FoldedCascodeTran) TranNetlist(x []float64) (*netlist.Circuit, map[string]float64, error) {
	c, nodeset, err := NewFoldedCascode().FoldedCascodeNetlist(x)
	if err != nil {
		return nil, nil, err
	}
	return c, nodeset, attachPulse(c, "VIN", fcTranAmp, fcTranDelay, fcTranRise)
}

var (
	_ problem.Problem        = (*CommonSourceTran)(nil)
	_ problem.BatchEvaluator = (*CommonSourceTran)(nil)
	_ problem.Problem        = (*FoldedCascodeTran)(nil)
	_ problem.BatchEvaluator = (*FoldedCascodeTran)(nil)
)
