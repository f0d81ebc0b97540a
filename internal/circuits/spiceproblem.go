package circuits

import (
	"fmt"
	"math"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/measure"
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
	// solver pins the engine's linear-solver backend; SolverAuto (the zero
	// value) resolves to sparse — the 6-unknown testbench sits exactly at
	// the auto threshold, where sparse already measures ~20% faster.
	solver spice.SolverKind
	// lanes pins the engine's lockstep lane count (0 = auto).
	lanes int
}

// SetSolver pins the MNA engine's linear-solver backend — the hook the
// sparse-vs-dense benchmarks and equivalence tests use. It returns p for
// chaining.
func (p *CommonSourceSpice) SetSolver(k spice.SolverKind) *CommonSourceSpice {
	p.solver = k
	return p
}

// SetLanes pins the engine's lockstep lane count (0 = auto by pattern size,
// 1 = scalar path) — the hook the lockstep benchmarks and equivalence tests
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

// spiceContext is the compiled evaluation state of one design: the netlist
// topology, the MNA engine and the device model cards are constructed once
// per candidate; each sample only overwrites the three perturbed cards (and
// the input-servo bias) in place and re-solves, warm-starting Newton from
// the design's nominal operating point.
type spiceContext struct {
	p              *CommonSourceSpice
	ib, w1, l1, w2 float64

	ckt   *netlist.Circuit
	eng   *spice.Engine
	vin   *netlist.VSource
	freqs []float64
	probe spice.Probe // the output node, swept up to its unity crossing

	// Perturbed model cards, one private card per device slot, rewritten
	// in place per sample (the Mosfet instances and the servo devices hold
	// pointers to them).
	drvCard, loadCard, biasCard *mos.Params
	drv, load, bias             *mos.Device

	// warm0 is the nominal operating point, solved once at compile and
	// used to warm-start every sample's Newton solve. It is fixed for the
	// context's lifetime: a per-sample rolling warm state would make each
	// solve depend on which samples ran before it in which order, which
	// the lockstep lane grouping (and Workers=1-vs-N bit-identity) forbids.
	// nil when the nominal point does not converge — samples then solve
	// cold, exactly as DCOperatingPointFrom(nil) specifies.
	warm0 *spice.OPResult
}

// csLaneState is the complete per-sample engine state of one lockstep lane:
// the three perturbed model cards plus the input-servo bias. The LaneSetter
// copies it over the context's live cards, so switching lanes is three
// struct copies and a float store — no Perturb/Apply recompute.
type csLaneState struct {
	drv, load, bias mos.Params
	vinDC           float64
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
		freqs:    spice.LogSpace(1e3, 5e9, 8),
	}
	k := mirrorRatio
	ctx.drv = &mos.Device{Params: ctx.drvCard, W: ctx.w1, L: ctx.l1, M: 1}
	ctx.load = &mos.Device{Params: ctx.loadCard, W: ctx.w2, L: p.inner.loadLen, M: 1}
	ctx.bias = &mos.Device{Params: ctx.biasCard, W: ctx.w2 / k, L: p.inner.loadLen, M: 1}
	ctx.setCards(nil)

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
	ctx.probe = probe

	eng, err := spice.New(c, spice.Options{Solver: p.solver, Lanes: p.lanes})
	if err != nil {
		return nil, err
	}
	ctx.eng = eng

	// Solve the nominal operating point once; every sample warm-starts from
	// it. A non-converging nominal leaves warm0 nil and samples solve cold.
	ctx.setSample(nil)
	if op, err := eng.DCOperatingPoint(); err == nil {
		ctx.warm0 = op
	}
	return ctx, nil
}

// setSample writes one sample's engine state: the three perturbed model
// cards and the input-servo bias tracking the perturbed mirror (nil =
// nominal).
func (ctx *spiceContext) setSample(xi []float64) {
	vdd, k := ctx.p.tech.VDD, mirrorRatio
	ctx.setCards(xi)
	id := clampMin(mirror(ctx.bias, ctx.load, ctx.ib/k, vdd/2), 1e-8)
	ctx.vin.DC = ctx.drv.VgsForID(id, 0)
}

// setCards rewrites the three perturbed model cards in place for the given
// variation vector (nil = nominal).
func (ctx *spiceContext) setCards(xi []float64) {
	inner := ctx.p.inner
	inter := inner.space.Inter(xi)
	perturbCard(ctx.drvCard, inner.space, &inter, xi, csDriver, ctx.w1*ctx.l1*1e12)
	perturbCard(ctx.loadCard, inner.space, &inter, xi, csLoad, ctx.w2*inner.loadLen*1e12)
	perturbCard(ctx.biasCard, inner.space, &inter, xi, csBias, ctx.w2/mirrorRatio*inner.loadLen*1e12)
}

// eval runs one sample through the compiled context: rewrite the cards,
// re-bias the input servo, solve DC (warm-started from the nominal
// operating point) and sweep AC. Non-convergence returns an error, which
// the yield machinery counts as a failed sample — the same
// failure-injection path a crashing HSPICE run takes in the paper's flow.
func (ctx *spiceContext) eval(xi []float64) ([]float64, error) {
	if err := ctx.p.inner.space.CheckVector(xi); err != nil {
		return nil, err
	}
	ctx.setSample(xi)
	op, err := ctx.eng.DCOperatingPointFrom(ctx.warm0)
	if err != nil {
		return nil, fmt.Errorf("common-source-spice: %w", err)
	}
	h, err := ctx.eng.ACProbe(op, ctx.freqs, ctx.probe)
	if err != nil {
		return nil, fmt.Errorf("common-source-spice: %w", err)
	}
	return ctx.measures(op, h)
}

// outputProbe is the AC probe of every spice testbench: the "out" node,
// swept up to its unity crossing — all the DC-gain, GBW and phase-margin
// measures read.
func outputProbe(c *netlist.Circuit) (spice.Probe, error) {
	out, ok := c.FindNode("out")
	if !ok {
		return spice.Probe{}, fmt.Errorf("circuits: testbench %q has no \"out\" node", c.Title)
	}
	return spice.Probe{Node: out, StopAtUnity: true}, nil
}

// measures extracts the performance vector from one sample's solved
// operating point and probed AC sweep h (the output node up to its unity
// crossing) — shared by the point-wise and lockstep paths.
func (ctx *spiceContext) measures(op *spice.OPResult, h []complex128) ([]float64, error) {
	p := ctx.p
	vdd := p.tech.VDD
	bode := measure.NewBode(ctx.freqs[:len(h)], h)
	a0dB := bode.DCGainDB()
	gbw, err := bode.GainBandwidth()
	if err != nil {
		// No unity crossing: gain below 1 everywhere. Report DC gain and a
		// zero GBW so the specs register the failure smoothly.
		gbw = 0
	}

	// Power from the VDD branch current (the source supplies the mirror
	// and the load branch).
	power := 0.0
	if len(op.BranchI) > 0 {
		power = vdd * math.Abs(op.BranchI[0])
	}

	// Saturation margin from the measured operating points.
	vout, err := op.VNode(ctx.ckt, "out")
	if err != nil {
		return nil, err
	}
	m1 := op.MOS["M1"]
	m2 := op.MOS["M2"]
	margin := minOf(
		vout-m1.VDsat-p.inner.msSat,
		(vdd-vout)-m2.VDsat-p.inner.msSat,
	)
	return []float64{a0dB, gbw, power, margin}, nil
}

// Evaluate implements problem.Problem by compiling a one-shot context and
// warm-starting from its nominal operating point — the point-wise path,
// bit-for-bit every batch path's result for the same sample.
func (p *CommonSourceSpice) Evaluate(x, xi []float64) ([]float64, error) {
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
// last group partially active — never of worker schedule, and every solve
// warm-starts from the same fixed nominal point, so the results are
// bit-identical to the point-wise path for any lane width and any worker
// count.
func (p *CommonSourceSpice) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
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
	lanes := make([]csLaneState, k)
	active := make([]bool, k)
	set := func(l int) {
		*ctx.drvCard = lanes[l].drv
		*ctx.loadCard = lanes[l].load
		*ctx.biasCard = lanes[l].bias
		ctx.vin.DC = lanes[l].vinDC
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
			ctx.setSample(xi)
			lanes[l] = csLaneState{
				drv: *ctx.drvCard, load: *ctx.loadCard, bias: *ctx.biasCard,
				vinDC: ctx.vin.DC,
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
				errs[g+l] = fmt.Errorf("common-source-spice: %w", dcErrs[l])
			case acErrs[l] != nil:
				errs[g+l] = fmt.Errorf("common-source-spice: %w", acErrs[l])
			default:
				perfs[g+l], errs[g+l] = ctx.measures(ops[l], hs[l])
			}
		}
	}
	return perfs, errs
}

var (
	_ problem.Problem        = (*CommonSourceSpice)(nil)
	_ problem.BatchEvaluator = (*CommonSourceSpice)(nil)
)
