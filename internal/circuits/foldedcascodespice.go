package circuits

import (
	"fmt"
	"math"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/spice"
	"github.com/eda-go/moheco/internal/variation"
)

// FoldedCascodeSpice evaluates the folded-cascode half-circuit testbench
// through the MNA engine per Monte-Carlo sample — the largest registered
// simulator-in-the-loop workload: the testbench assembles a 19-unknown MNA
// system, so every DC Newton iteration and every AC frequency point runs a
// fill-bounded sparse factorization.
//
// Like CommonSourceSpice it implements problem.BatchEvaluator: one compiled
// context (netlist + engine + symbolic factorization) per design, model
// cards rewritten in place per sample, and every DC solve warm-started from
// the design's fixed nominal operating point with a cold-start fallback, so
// failure injection matches the point-wise path and lane grouping stays a
// pure function of the chunk. The performance vector is
// aligned with the behavioural FoldedCascode's specs: [A0 dB, GBW Hz, PM
// deg, OS V, power W, satmargin V] — the half circuit draws roughly half
// the full differential supply current, so its yield surface is its own
// (this is a testbench problem, not a substitute reference for the paper's
// tables).
type FoldedCascodeSpice struct {
	inner *FoldedCascode
	// lanes pins the engine's lockstep lane count (0 = auto).
	lanes int
}

// NewFoldedCascodeSpice builds the simulator-in-the-loop folded-cascode
// problem.
func NewFoldedCascodeSpice() *FoldedCascodeSpice {
	return &FoldedCascodeSpice{inner: NewFoldedCascode()}
}

// SetLanes pins the engine's lockstep lane count (0 = auto by pattern size,
// 1 = one-lane groups) — the hook the lockstep benchmarks and equivalence tests
// use. It returns p for chaining.
func (p *FoldedCascodeSpice) SetLanes(k int) *FoldedCascodeSpice {
	p.lanes = k
	return p
}

// Name implements problem.Problem.
func (p *FoldedCascodeSpice) Name() string { return "folded-cascode-0.35um-spice" }

// Dim implements problem.Problem.
func (p *FoldedCascodeSpice) Dim() int { return p.inner.Dim() }

// Bounds implements problem.Problem.
func (p *FoldedCascodeSpice) Bounds() (lo, hi []float64) { return p.inner.Bounds() }

// Specs implements problem.Problem.
func (p *FoldedCascodeSpice) Specs() []constraint.Spec { return p.inner.Specs() }

// VarDim implements problem.Problem.
func (p *FoldedCascodeSpice) VarDim() int { return p.inner.VarDim() }

// ReferenceDesign returns the behavioural problem's reference sizing.
func (p *FoldedCascodeSpice) ReferenceDesign() []float64 { return p.inner.ReferenceDesign() }

// fcSlotCard ties one perturbed model card to its variation slot and
// geometry (the area law needs W·L of the instance the card is stamped on).
type fcSlotCard struct {
	card *mos.Params
	slot int
	w, l float64
}

// fcSpiceContext is the compiled testbench of one design; each sample
// rewrites the seven perturbed model cards in place and re-solves,
// warm-starting Newton from the design's nominal operating point.
type fcSpiceContext struct {
	testbench
	p     *FoldedCascodeSpice
	ckt   *netlist.Circuit
	slots []fcSlotCard
	// sat is the signal path M1, M3, M5, M7, M9, resolved at compile.
	sat [5]fcSatDevice
}

// fcSatDevice is one signal-path transistor of the saturation-margin and
// swing measures: its OPResult.MOS position and the two nodes its |vds|
// spans.
type fcSatDevice struct {
	mos, d, s int
}

// fcSat names the signal-path devices of fcSpiceContext.sat, in order, with
// the nodes of their drain-source voltage.
var fcSat = [5]struct{ dev, d, s string }{
	{"M1", "fold", "src"},
	{"M3", "fold", "0"},
	{"M5", "out", "fold"},
	{"M7", "out", "x"},
	{"M9", "x", "vdd"},
}

// compile builds the per-design evaluation context.
func (p *FoldedCascodeSpice) compile(x []float64) (*fcSpiceContext, error) {
	if len(x) != p.Dim() {
		return nil, fmt.Errorf("folded-cascode-spice: design has %d variables, want %d", len(x), p.Dim())
	}
	inner := p.inner
	w1, l1 := x[2], x[3]
	w3, w5, w7, w9 := x[4], x[5], x[6], x[7]
	lcs, lcas := x[8], x[9]
	k := mirrorRatio

	ctx := &fcSpiceContext{
		p: p,
		slots: []fcSlotCard{
			{card: &mos.Params{Name: slotCardName(fcInL)}, slot: fcInL, w: w1, l: l1},
			{card: &mos.Params{Name: slotCardName(fcNSinkL)}, slot: fcNSinkL, w: w3, l: lcs},
			{card: &mos.Params{Name: slotCardName(fcNCasL)}, slot: fcNCasL, w: w5, l: lcas},
			{card: &mos.Params{Name: slotCardName(fcPCasL)}, slot: fcPCasL, w: w7, l: lcas},
			{card: &mos.Params{Name: slotCardName(fcPSrcL)}, slot: fcPSrcL, w: w9, l: lcs},
			{card: &mos.Params{Name: slotCardName(fcBiasN)}, slot: fcBiasN, w: w3 / k, l: lcs},
			{card: &mos.Params{Name: slotCardName(fcBiasP)}, slot: fcBiasP, w: w9 / k, l: lcs},
		},
	}
	ctx.setCards(nil)
	cards := make([]*mos.Params, len(ctx.slots))
	for i := range ctx.slots {
		cards[i] = ctx.slots[i].card
	}
	ckt, nodeset, err := inner.buildFoldedCascodeTB(x, fcCards{
		in: cards[0], nsink: cards[1], ncas: cards[2], pcas: cards[3],
		psrc: cards[4], biasN: cards[5], biasP: cards[6],
	})
	if err != nil {
		return nil, err
	}
	ctx.ckt = ckt
	probe, err := outputProbe(ckt)
	if err != nil {
		return nil, err
	}
	eng, err := spice.New(ckt, spice.Options{Nodeset: nodeset, Lanes: p.lanes})
	if err != nil {
		return nil, err
	}
	for i, sd := range fcSat {
		m, err := mosIndex(eng, sd.dev)
		if err != nil {
			return nil, err
		}
		d, dok := ckt.FindNode(sd.d)
		s, sok := ckt.FindNode(sd.s)
		if !dok || !sok {
			return nil, fmt.Errorf("circuits: testbench lacks node %q or %q", sd.d, sd.s)
		}
		ctx.sat[i] = fcSatDevice{mos: m, d: d, s: s}
	}
	ctx.testbench = testbench{
		name:      "folded-cascode-spice",
		space:     inner.space,
		eng:       eng,
		freqs:     spice.LogSpace(1e3, 1e9, 8),
		probe:     probe,
		cards:     cards,
		setSample: ctx.setCards,
		measures:  ctx.acMeasures,
		perfs:     len(inner.Specs()),
	}

	// Solve the nominal operating point once; every sample warm-starts from
	// it (cards are already nominal from setCards(nil) above). A
	// non-converging nominal leaves warm0 nil and samples solve cold.
	if op, err := eng.DCOperatingPoint(); err == nil {
		ctx.warm0 = op
	}
	return ctx, nil
}

// setCards rewrites the seven perturbed model cards in place for the given
// variation vector (nil = nominal).
func (ctx *fcSpiceContext) setCards(xi []float64) {
	inner := ctx.p.inner
	inter := inner.space.Inter(xi)
	for i := range ctx.slots {
		sc := &ctx.slots[i]
		perturbCard(sc.card, inner.space, &inter, xi, sc.slot, sc.w*sc.l*1e12)
	}
}

// acMeasures writes the performance vector of one sample's solved
// operating point and probed AC sweep h into perf.
func (ctx *fcSpiceContext) acMeasures(perf []float64, op *spice.OPResult, h []complex128, _ *spice.TranResult) error {
	inner := ctx.p.inner
	vdd := inner.tech.VDD
	a0dB, gbw, pm := bodeMeasures(ctx.freqs, h, true)

	// Power from the VDD branch current (branch 0: VDD is the first V
	// element of the testbench); the ideal tail/bias pull-ups route
	// through it, the PMOS sources conduct from it.
	power := 0.0
	if len(op.BranchI) > 0 {
		power = vdd * math.Abs(op.BranchI[0])
	}

	// Saturation margins from the measured operating points: |vds| - vdsat
	// per signal-path device, with the drain/source frame folded by
	// magnitude (the engine may have swapped the terminals).
	var vdsat [len(fcSat)]float64
	satMargin := math.Inf(1) // minOf over the devices
	for i, sd := range ctx.sat {
		vdsat[i] = op.MOS[sd.mos].VDsat
		if m := math.Abs(op.V[sd.d]-op.V[sd.s]) - vdsat[i]; m < satMargin {
			satMargin = m
		}
	}

	// Output swing from the measured saturation voltages, as in the
	// behavioural evaluator (differential peak-to-peak across both rails):
	// M9 and M7 below the upper rail, M3 and M5 above ground.
	vmax := vdd - vdsat[4] - vdsat[3] - inner.msSwing
	vmin := vdsat[1] + vdsat[2] + inner.msSwing
	os := 2 * (vmax - vmin)

	perf[0], perf[1], perf[2], perf[3], perf[4], perf[5] = a0dB, gbw, pm, os, power, satMargin
	return nil
}

// Evaluate implements problem.Problem as a one-sample batch — bit-for-bit
// every batch path's result for the same sample.
func (p *FoldedCascodeSpice) Evaluate(x, xi []float64) ([]float64, error) {
	return first(p.EvaluateBatch(x, [][]float64{xi}))
}

// EvaluateBatch implements problem.BatchEvaluator: one compiled testbench
// per design, the samples run through it in lockstep lane groups.
func (p *FoldedCascodeSpice) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	ctx, err := p.compile(x)
	if err != nil {
		return failAll(len(xis), err)
	}
	return ctx.run(xis)
}

// Space exposes the variation space (used by the experiment harness).
func (p *FoldedCascodeSpice) Space() *variation.Space { return p.inner.space }

var (
	_ problem.Problem        = (*FoldedCascodeSpice)(nil)
	_ problem.BatchEvaluator = (*FoldedCascodeSpice)(nil)
)
