package circuits

import (
	"fmt"
	"math"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/spice"
	"github.com/eda-go/moheco/internal/variation"
)

// FoldedCascodeSpice evaluates the folded-cascode half-circuit testbench
// through the MNA engine per Monte-Carlo sample — the largest registered
// simulator-in-the-loop workload and the one where the sparse solver path
// pays off: the testbench assembles a 19-unknown MNA system, so every DC
// Newton iteration and every AC frequency point runs a factorization that
// is O(n³) dense but fill-bounded sparse.
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
	// solver pins the engine's linear-solver backend; SolverAuto (the zero
	// value) resolves to sparse at this circuit's size.
	solver spice.SolverKind
	// lanes pins the engine's lockstep lane count (0 = auto).
	lanes int
}

// NewFoldedCascodeSpice builds the simulator-in-the-loop folded-cascode
// problem.
func NewFoldedCascodeSpice() *FoldedCascodeSpice {
	return &FoldedCascodeSpice{inner: NewFoldedCascode()}
}

// SetSolver pins the MNA engine's linear-solver backend — the hook the
// sparse-vs-dense benchmarks and equivalence tests use. It returns p for
// chaining.
func (p *FoldedCascodeSpice) SetSolver(k spice.SolverKind) *FoldedCascodeSpice {
	p.solver = k
	return p
}

// SetLanes pins the engine's lockstep lane count (0 = auto by pattern size,
// 1 = scalar path) — the hook the lockstep benchmarks and equivalence tests
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

// fcSpiceContext is the compiled evaluation state of one design: netlist
// topology, MNA engine (symbolic factorization included) and the perturbed
// model cards are constructed once per candidate; each sample rewrites the
// seven cards in place and re-solves, warm-starting Newton from the
// design's nominal operating point.
type fcSpiceContext struct {
	p     *FoldedCascodeSpice
	ckt   *netlist.Circuit
	eng   *spice.Engine
	freqs []float64
	probe spice.Probe // the output node, swept up to its unity crossing
	cards []fcSlotCard
	// warm0 is the nominal operating point, solved once at compile and used
	// to warm-start every sample — fixed so sample solves are independent of
	// batch order and lane grouping (nil when the nominal does not converge;
	// samples then solve cold).
	warm0 *spice.OPResult
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
		p:     p,
		freqs: spice.LogSpace(1e3, 1e9, 8),
		cards: []fcSlotCard{
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
	cards := fcCards{
		in:    ctx.cards[0].card,
		nsink: ctx.cards[1].card,
		ncas:  ctx.cards[2].card,
		pcas:  ctx.cards[3].card,
		psrc:  ctx.cards[4].card,
		biasN: ctx.cards[5].card,
		biasP: ctx.cards[6].card,
	}
	ckt, nodeset, err := inner.buildFoldedCascodeTB(x, cards)
	if err != nil {
		return nil, err
	}
	ctx.ckt = ckt
	if ctx.probe, err = outputProbe(ckt); err != nil {
		return nil, err
	}
	eng, err := spice.New(ckt, spice.Options{Nodeset: nodeset, Solver: p.solver, Lanes: p.lanes})
	if err != nil {
		return nil, err
	}
	ctx.eng = eng

	// Solve the nominal operating point once; every sample warm-starts from
	// it (cards are already nominal from setCards(nil) above).
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
	for i := range ctx.cards {
		sc := &ctx.cards[i]
		perturbCard(sc.card, inner.space, &inter, xi, sc.slot, sc.w*sc.l*1e12)
	}
}

// eval runs one sample through the compiled context: rewrite the cards,
// solve DC (warm-started from the nominal operating point) and sweep AC.
// Non-convergence returns an error, which the yield machinery counts as a
// failed sample — the failure-injection path a crashing HSPICE run takes.
func (ctx *fcSpiceContext) eval(xi []float64) ([]float64, error) {
	if err := ctx.p.inner.space.CheckVector(xi); err != nil {
		return nil, err
	}
	ctx.setCards(xi)
	op, err := ctx.eng.DCOperatingPointFrom(ctx.warm0)
	if err != nil {
		return nil, fmt.Errorf("folded-cascode-spice: %w", err)
	}
	h, err := ctx.eng.ACProbe(op, ctx.freqs, ctx.probe)
	if err != nil {
		return nil, fmt.Errorf("folded-cascode-spice: %w", err)
	}
	return ctx.measures(op, h)
}

// measures extracts the performance vector from one sample's solved
// operating point and probed AC sweep h (the output node up to its unity
// crossing) — shared by the point-wise and lockstep paths.
func (ctx *fcSpiceContext) measures(op *spice.OPResult, h []complex128) ([]float64, error) {
	inner := ctx.p.inner
	vdd := inner.tech.VDD
	bode := measure.NewBode(ctx.freqs[:len(h)], h)
	a0dB := bode.DCGainDB()
	gbw, err := bode.GainBandwidth()
	if err != nil {
		// No unity crossing: gain below 1 everywhere. Zero GBW and PM make
		// the specs register the failure smoothly.
		gbw = 0
	}
	pm := 0.0
	if gbw > 0 {
		if m, err := bode.PhaseMargin(); err == nil {
			pm = m
		}
	}

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
	vNode := func(name string) float64 {
		v, _ := op.VNode(ctx.ckt, name)
		return v
	}
	margin := func(dev, dn, sn string) float64 {
		return math.Abs(vNode(dn)-vNode(sn)) - op.MOS[dev].VDsat
	}
	satMargin := minOf(
		margin("M1", "fold", "src"),
		margin("M3", "fold", "0"),
		margin("M5", "out", "fold"),
		margin("M7", "out", "x"),
		margin("M9", "x", "vdd"),
	)

	// Output swing from the measured saturation voltages, as in the
	// behavioural evaluator (differential peak-to-peak across both rails).
	vmax := vdd - op.MOS["M9"].VDsat - op.MOS["M7"].VDsat - inner.msSwing
	vmin := op.MOS["M3"].VDsat + op.MOS["M5"].VDsat + inner.msSwing
	os := 2 * (vmax - vmin)

	return []float64{a0dB, gbw, pm, os, power, satMargin}, nil
}

// Evaluate implements problem.Problem by compiling a one-shot context and
// warm-starting from its nominal operating point — the point-wise path,
// bit-for-bit every batch path's result for the same sample.
func (p *FoldedCascodeSpice) Evaluate(x, xi []float64) ([]float64, error) {
	ctx, err := p.compile(x)
	if err != nil {
		return nil, err
	}
	return ctx.eval(xi)
}

// EvaluateBatch implements problem.BatchEvaluator: one compiled context per
// design, with samples grouped into K lockstep lanes (K = the engine's
// resolved lane count) so each group's DC Newton iterations and AC
// frequency points factor and solve in one SoA traversal. Lane grouping is
// a pure function of the chunk — samples [0,K), [K,2K), … in order, the
// last group partially active — and every solve warm-starts from the same
// fixed nominal point, so the results are bit-identical to the point-wise
// path for any lane width and any worker count.
func (p *FoldedCascodeSpice) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
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
			perfs[i], errs[i] = ctx.eval(xi)
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
			if err := p.inner.space.CheckVector(xi); err != nil {
				errs[g+l] = err
				continue
			}
			ctx.setCards(xi)
			for i := 0; i < nc; i++ {
				lanes[l][i] = *ctx.cards[i].card
			}
			active[l] = true
		}
		ops, dcErrs := ctx.eng.DCOperatingPointBatchFrom(ctx.warm0, active, set)
		hs, acErrs := ctx.eng.ACBatchProbe(ops, ctx.freqs, ctx.probe, set)
		for l := 0; l < m; l++ {
			if !active[l] {
				continue
			}
			switch {
			case dcErrs[l] != nil:
				errs[g+l] = fmt.Errorf("folded-cascode-spice: %w", dcErrs[l])
			case acErrs[l] != nil:
				errs[g+l] = fmt.Errorf("folded-cascode-spice: %w", acErrs[l])
			default:
				perfs[g+l], errs[g+l] = ctx.measures(ops[l], hs[l])
			}
		}
	}
	return perfs, errs
}

// Space exposes the variation space (used by the experiment harness).
func (p *FoldedCascodeSpice) Space() *variation.Space { return p.inner.space }

var (
	_ problem.Problem        = (*FoldedCascodeSpice)(nil)
	_ problem.BatchEvaluator = (*FoldedCascodeSpice)(nil)
)
