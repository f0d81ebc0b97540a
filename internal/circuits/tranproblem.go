package circuits

import (
	"fmt"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/spice"
)

// This file adds the time domain to the scenario suite: step-response
// problems whose pass/fail oracle combines AC measures (gain and bandwidth,
// plus phase margin for the folded cascode) with transient measures (slew
// rate, settling time, overshoot) computed from the adaptive trapezoidal
// integrator — the spec mix real sizing flows score candidates on.
//
// # Determinism contract
//
// Unlike the AC-only spice problems, the transient problems never
// warm-start the DC solve, not even from the fixed nominal operating point:
// their testbench's warm0 is nil. The adaptive integrator's
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
// lockstep kernel additionally batches the cold DC solves, AC sweeps and
// adaptive transients of K samples per traversal (bit-identical to
// one-lane solves by the lane contract). Each transient lane keeps its own
// step grid: a round attempts every unfinished lane's own next step in one
// lockstep Newton run, so the lanes share the factorizations, not the grid.

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
func (c *TranConfig) tranOptions() *spice.TranOptions {
	return &spice.TranOptions{TStop: c.tstop, Step: c.step, Adaptive: !c.fixed}
}

// stepResponse reduces one sample's step response, the "out" waveform wave
// on the time grid times, to [slew V/s, 1% settling s, overshoot]. Failure shapes degrade smoothly instead of erroring: a
// waveform that never settles inside the window reports the window length
// itself (violating any tighter bound), and a collapsed swing reports zero
// slew — both the transient analogue of the zero-GBW convention the AC
// problems use, so the yield oracle counts a broken chip rather than a
// broken simulator.
func (c *TranConfig) stepResponse(times, wave []float64, t0 float64) (slew, tSettle, overshoot float64, err error) {
	st, err := measure.NewStep(times, wave, t0)
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
// 1 = one-lane groups). It returns p for chaining.
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

// compile builds the per-design testbench: the spice problem's AC
// testbench with the step drive riding on the input servo, every sample
// solved cold (the determinism contract above; the nominal operating point
// the AC compile solves goes unused), and the step response integrated
// after the sweep.
func (p *CommonSourceTran) compile(x []float64) (*spiceContext, error) {
	ctx, err := p.spice.compile(x)
	if err != nil {
		return nil, err
	}
	vin := ctx.vin
	vin.Pulse = &netlist.Pulse{Delay: csTranDelay, Rise: csTranRise, Width: 1}
	ctx.name = "common-source-tran"
	ctx.warm0 = nil
	ctx.vals = append(ctx.vals, &vin.Pulse.V1, &vin.Pulse.V2)
	ctx.setSample = func(xi []float64) {
		ctx.setServo(xi)
		vin.Pulse.V1 = vin.DC
		vin.Pulse.V2 = vin.DC + csTranAmp
	}
	ctx.tran = p.tranOptions()
	ctx.perfs = len(p.specs)
	ctx.measures = func(perf []float64, _ *spice.OPResult, h []complex128, tr *spice.TranResult) error {
		a0dB, gbw, _ := bodeMeasures(ctx.freqs, h, false)
		slew, ts, os, err := p.stepResponse(tr.Times, ctx.outWave(tr), csTranDelay)
		if err != nil {
			return err
		}
		perf[0], perf[1], perf[2], perf[3], perf[4] = a0dB, gbw, slew, ts, os
		return nil
	}
	return ctx, nil
}

// Evaluate implements problem.Problem as a one-sample batch — bit-identical
// to any batch path by the cold-start contract.
func (p *CommonSourceTran) Evaluate(x, xi []float64) ([]float64, error) {
	return first(p.EvaluateBatch(x, [][]float64{xi}))
}

// EvaluateBatch implements problem.BatchEvaluator: one compiled testbench
// per design. The cold DC solves, AC sweeps and adaptive transients of each
// lane group run through the lockstep kernel.
func (p *CommonSourceTran) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	ctx, err := p.compile(x)
	if err != nil {
		return failAll(len(xis), err)
	}
	return ctx.run(xis)
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
// 1 = one-lane groups). It returns p for chaining.
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

// compile builds the per-design testbench: the spice problem's AC
// testbench with the step drive armed on the input source, every sample
// solved cold (the determinism contract above), and the step response
// integrated after the sweep. The drive rides on the fixed nominal bias, so
// the cards are the whole per-sample state.
func (p *FoldedCascodeTran) compile(x []float64) (*fcSpiceContext, error) {
	ctx, err := p.spice.compile(x)
	if err != nil {
		return nil, err
	}
	if err := attachPulse(ctx.ckt, "VIN", fcTranAmp, fcTranDelay, fcTranRise); err != nil {
		return nil, err
	}
	ctx.name = "folded-cascode-tran"
	ctx.warm0 = nil
	ctx.tran = p.tranOptions()
	ctx.perfs = len(p.specs)
	ctx.measures = func(perf []float64, _ *spice.OPResult, h []complex128, tr *spice.TranResult) error {
		a0dB, gbw, pm := bodeMeasures(ctx.freqs, h, true)
		slew, ts, os, err := p.stepResponse(tr.Times, ctx.outWave(tr), fcTranDelay)
		if err != nil {
			return err
		}
		perf[0], perf[1], perf[2], perf[3], perf[4], perf[5] = a0dB, gbw, pm, slew, ts, os
		return nil
	}
	return ctx, nil
}

// Evaluate implements problem.Problem as a one-sample batch — bit-identical
// to any batch path by the cold-start contract.
func (p *FoldedCascodeTran) Evaluate(x, xi []float64) ([]float64, error) {
	return first(p.EvaluateBatch(x, [][]float64{xi}))
}

// EvaluateBatch implements problem.BatchEvaluator: one compiled testbench
// per design. The cold DC solves, AC sweeps and adaptive transients of each
// lane group run through the lockstep kernel.
func (p *FoldedCascodeTran) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	ctx, err := p.compile(x)
	if err != nil {
		return failAll(len(xis), err)
	}
	return ctx.run(xis)
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
