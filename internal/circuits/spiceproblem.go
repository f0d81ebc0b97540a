package circuits

import (
	"fmt"
	"math"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/pdk"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/spice"
)

// CommonSourceSpice is the fully general evaluation path of the paper's
// flow: every Monte-Carlo sample evaluates a perturbed transistor-level
// netlist through the MNA engine (DC operating point + AC sweep), exactly
// as the paper runs HSPICE per sample. It implements the same quickstart
// problem as CommonSource, so the behavioural fast path and the
// simulator-in-the-loop path can be compared directly.
//
// It implements problem.BatchEvaluator: all Monte-Carlo samples of one
// candidate share a single compiled evaluation context — the netlist and
// engine are built once per design, each sample rewrites the perturbed
// model cards in place, and every DC Newton solve is warm-started from the
// design's nominal operating point (solved once at compile; cold-start
// fallback on non-convergence, so failure injection matches the point-wise
// path). Warm-starting from the fixed nominal point rather than from the
// previous sample keeps every sample's solve independent of batch order,
// which is what lets the lockstep path group samples into lanes freely:
// point-wise, batched at any lane width, and served results are all the
// same bits. Point-wise Evaluate remains two to three orders of magnitude
// slower per sample than the behavioural evaluator — the gap that
// motivates the paper's budget allocation in the first place; the batch
// path claws back the per-sample setup and solver cost that gap is made
// of, and the lockstep kernel amortizes the sparse traversal across lanes.
type CommonSourceSpice struct {
	inner *CommonSource
	tech  *pdk.Tech
	specs []constraint.Spec
	// lanes pins the engine's lockstep lane count (0 = auto).
	lanes int
}

// SetLanes pins the engine's lockstep lane count (0 = auto by pattern size,
// 1 = one-lane groups) — the hook the lockstep benchmarks and equivalence tests
// use. It returns p for chaining.
func (p *CommonSourceSpice) SetLanes(k int) *CommonSourceSpice {
	p.lanes = k
	return p
}

// NewCommonSourceSpice builds the simulator-in-the-loop quickstart problem.
func NewCommonSourceSpice() *CommonSourceSpice {
	inner := NewCommonSource()
	return &CommonSourceSpice{
		inner: inner,
		tech:  inner.tech,
		specs: inner.specs,
	}
}

// Name implements problem.Problem.
func (p *CommonSourceSpice) Name() string { return "common-source-0.35um-spice" }

// Dim implements problem.Problem.
func (p *CommonSourceSpice) Dim() int { return p.inner.Dim() }

// Bounds implements problem.Problem.
func (p *CommonSourceSpice) Bounds() (lo, hi []float64) { return p.inner.Bounds() }

// Specs implements problem.Problem.
func (p *CommonSourceSpice) Specs() []constraint.Spec { return p.specs }

// VarDim implements problem.Problem.
func (p *CommonSourceSpice) VarDim() int { return p.inner.VarDim() }

// ReferenceDesign returns the behavioural problem's reference sizing.
func (p *CommonSourceSpice) ReferenceDesign() []float64 { return p.inner.ReferenceDesign() }

// spiceContext is the compiled testbench of one design. Each sample
// rewrites the three perturbed model cards and the input-servo bias in
// place (the Mosfet instances and the servo devices hold pointers to the
// cards) and re-solves, warm-starting Newton from the design's nominal
// operating point.
type spiceContext struct {
	testbench
	p              *CommonSourceSpice
	ib, w1, l1, w2 float64

	ckt                         *netlist.Circuit
	vin                         *netlist.VSource
	drvCard, loadCard, biasCard *mos.Params
	drv, load, bias             *mos.Device
	// m1 and m2 are the driver's and the load's OPResult.MOS positions.
	m1, m2 int
}

// compile builds the per-design evaluation context. The netlist is
// constructed with the device order of the original per-sample builder, so
// branch indices (the VDD current used for power) are unchanged.
func (p *CommonSourceSpice) compile(x []float64) (*spiceContext, error) {
	if len(x) != p.Dim() {
		return nil, fmt.Errorf("common-source-spice: design has %d variables, want %d", len(x), p.Dim())
	}
	vdd := p.tech.VDD
	ctx := &spiceContext{
		p:  p,
		ib: clampMin(x[0], 1e-7),
		w1: x[1], l1: x[2], w2: x[3],
		drvCard:  &mos.Params{Name: slotCardName(csDriver)},
		loadCard: &mos.Params{Name: slotCardName(csLoad)},
		biasCard: &mos.Params{Name: slotCardName(csBias)},
	}
	k := mirrorRatio
	ctx.drv = &mos.Device{Params: ctx.drvCard, W: ctx.w1, L: ctx.l1, M: 1}
	ctx.load = &mos.Device{Params: ctx.loadCard, W: ctx.w2, L: p.inner.loadLen, M: 1}
	ctx.bias = &mos.Device{Params: ctx.biasCard, W: ctx.w2 / k, L: p.inner.loadLen, M: 1}

	c := netlist.New("common-source sample")
	c.AddV("VDD", "vdd", "0", vdd, 0)
	c.AddI("IB", "bp", "0", ctx.ib/k, 0)
	c.AddM("MB", "bp", "bp", "vdd", "vdd", ctx.biasCard, ctx.w2/k, p.inner.loadLen, 1)
	c.AddM("M2", "out", "bp", "vdd", "vdd", ctx.loadCard, ctx.w2, p.inner.loadLen, 1)
	// Input servo: bias the driver's gate for the mirrored current, using
	// the perturbed cards (the testbench tracks the actual circuit); the DC
	// value is rewritten per sample.
	ctx.vin = c.AddV("VIN", "in", "0", 0, 1)
	c.AddM("M1", "out", "in", "0", "0", ctx.drvCard, ctx.w1, ctx.l1, 1)
	c.AddC("CL", "out", "0", p.inner.CL)
	ctx.ckt = c
	probe, err := outputProbe(c)
	if err != nil {
		return nil, err
	}
	eng, err := spice.New(c, spice.Options{Lanes: p.lanes})
	if err != nil {
		return nil, err
	}
	if ctx.m1, err = mosIndex(eng, "M1"); err != nil {
		return nil, err
	}
	if ctx.m2, err = mosIndex(eng, "M2"); err != nil {
		return nil, err
	}
	ctx.testbench = testbench{
		name:      "common-source-spice",
		space:     p.inner.space,
		eng:       eng,
		freqs:     spice.LogSpace(1e3, 5e9, 8),
		probe:     probe,
		cards:     []*mos.Params{ctx.drvCard, ctx.loadCard, ctx.biasCard},
		vals:      []*float64{&ctx.vin.DC},
		setSample: ctx.setServo,
		measures:  ctx.acMeasures,
		perfs:     len(p.specs),
	}

	// Solve the nominal operating point once; every sample warm-starts from
	// it. A non-converging nominal leaves warm0 nil and samples solve cold.
	ctx.setServo(nil)
	if op, err := eng.DCOperatingPoint(); err == nil {
		ctx.warm0 = op
	}
	return ctx, nil
}

// setServo writes one sample's engine state: the three perturbed model
// cards and the input-servo bias tracking the perturbed mirror (nil =
// nominal).
func (ctx *spiceContext) setServo(xi []float64) {
	inner := ctx.p.inner
	vdd, k := ctx.p.tech.VDD, mirrorRatio
	inter := inner.space.Inter(xi)
	perturbCard(ctx.drvCard, inner.space, &inter, xi, csDriver, ctx.w1*ctx.l1*1e12)
	perturbCard(ctx.loadCard, inner.space, &inter, xi, csLoad, ctx.w2*inner.loadLen*1e12)
	perturbCard(ctx.biasCard, inner.space, &inter, xi, csBias, ctx.w2/k*inner.loadLen*1e12)
	id := clampMin(mirror(ctx.bias, ctx.load, ctx.ib/k, vdd/2), 1e-8)
	ctx.vin.DC = ctx.drv.VgsForID(id, 0)
}

// acMeasures writes the performance vector of one sample's solved
// operating point and probed AC sweep h into perf.
func (ctx *spiceContext) acMeasures(perf []float64, op *spice.OPResult, h []complex128, _ *spice.TranResult) error {
	p := ctx.p
	vdd := p.tech.VDD
	a0dB, gbw, _ := bodeMeasures(ctx.freqs, h, false)

	// Power from the VDD branch current (the source supplies the mirror
	// and the load branch).
	power := 0.0
	if len(op.BranchI) > 0 {
		power = vdd * math.Abs(op.BranchI[0])
	}

	// Saturation margin from the measured operating points; the probe is
	// the "out" node.
	vout := op.V[ctx.probe.Node]
	m1, m2 := &op.MOS[ctx.m1], &op.MOS[ctx.m2]
	margin := minOf(
		vout-m1.VDsat-p.inner.msSat,
		(vdd-vout)-m2.VDsat-p.inner.msSat,
	)
	perf[0], perf[1], perf[2], perf[3] = a0dB, gbw, power, margin
	return nil
}

// Evaluate implements problem.Problem as a one-sample batch — bit-for-bit
// every batch path's result for the same sample.
func (p *CommonSourceSpice) Evaluate(x, xi []float64) ([]float64, error) {
	return first(p.EvaluateBatch(x, [][]float64{xi}))
}

// EvaluateBatch implements problem.BatchEvaluator: one compiled testbench
// per design, the samples run through it in lockstep lane groups.
func (p *CommonSourceSpice) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	ctx, err := p.compile(x)
	if err != nil {
		return failAll(len(xis), err)
	}
	return ctx.run(xis)
}

var (
	_ problem.Problem        = (*CommonSourceSpice)(nil)
	_ problem.BatchEvaluator = (*CommonSourceSpice)(nil)
)
