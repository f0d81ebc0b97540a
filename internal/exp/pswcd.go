package exp

import (
	"fmt"
	"io"

	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/corners"
	"github.com/eda-go/moheco/internal/pdk"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// PSWCDResult quantifies the paper's §3.4 argument against non-statistical
// methods on example 1: a corner-based worst-case sizing is compared with
// MOHECO on true (Monte-Carlo) yield and on the power it spends — the
// "over-design" the paper attributes to worst-case methods — and on
// simulation cost.
type PSWCDResult struct {
	// Corner-based worst-case design.
	CornerPower float64
	CornerYield float64
	CornerPass  bool  // all corners satisfied at the returned design
	CornerEvals int64 // simulator calls spent by the corner flow
	// MOHECO design.
	MohecoPower float64
	MohecoYield float64
	MohecoEvals int64
	// OverDesign is CornerPower/MohecoPower − 1 (positive when the corner
	// method burns extra power for the same specs).
	OverDesign float64
}

// RunPSWCD runs both flows on example 1 and scores them with the reference
// estimator.
func RunPSWCD(cfg Config) (*PSWCDResult, error) {
	p := scenarioProblem("foldedcascode")
	tech := pdk.C035()
	gen := &corners.Generator{Sigma: 3, InterDim: len(tech.Inter)}
	nSel := func(i int) bool {
		switch tech.Inter[i].Target {
		case pdk.VthP, pdk.U0P, pdk.ToxP, pdk.LDP, pdk.WDP, pdk.CJP, pdk.CJSWP,
			pdk.RDP, pdk.GammaP, pdk.OverlapP, pdk.LambdaP:
			return false
		}
		return true
	}
	cs := gen.Classic(p, nSel)

	// Corner-based flow: minimize power (spec index 4) under all corners.
	cres, err := corners.Optimize(p, cs, corners.OptimizeOptions{
		ObjectiveIndex: 4,
		MaxGens:        cfg.MaxGens,
		Seed:           randx.DeriveSeed(cfg.Seed, 0xc0), //nolint
	})
	if err != nil {
		return nil, err
	}
	out := &PSWCDResult{
		CornerPower: cres.Objective,
		CornerPass:  cres.CornersPass,
		CornerEvals: cres.Evaluations,
	}
	y, _, err := yieldsim.ReferenceWorkers(p, cres.X, cfg.RefSamples, randx.DeriveSeed(cfg.Seed, 0xc1), nil, cfg.Workers)
	if err != nil {
		return nil, err
	}
	out.CornerYield = y

	// MOHECO flow on the same problem.
	mres, err := core.Optimize(p, cfg.mohecoOptions(randx.DeriveSeed(cfg.Seed, 0xc2), cfg.Workers))
	if err != nil {
		return nil, err
	}
	out.MohecoEvals = mres.TotalSims
	my, _, err := yieldsim.ReferenceWorkers(p, mres.BestX, cfg.RefSamples, randx.DeriveSeed(cfg.Seed, 0xc3), nil, cfg.Workers)
	if err != nil {
		return nil, err
	}
	out.MohecoYield = my
	perf, err := p.Evaluate(mres.BestX, nil)
	if err != nil {
		return nil, err
	}
	out.MohecoPower = perf[4]
	if out.MohecoPower > 0 {
		out.OverDesign = out.CornerPower/out.MohecoPower - 1
	}
	return out, nil
}

// Render prints the §3.4 worst-case-versus-statistical comparison.
func (r *PSWCDResult) Render(w io.Writer) {
	fmt.Fprintf(w, "§3.4 — corner-based worst-case design vs MOHECO (example 1)\n")
	fmt.Fprintf(w, "%-28s %12s %12s %12s\n", "flow", "power (mW)", "true yield", "simulations")
	fmt.Fprintf(w, "%-28s %12.4f %11.2f%% %12d  (corners pass: %v)\n",
		"corner-based (3σ, 5 corners)", 1e3*r.CornerPower, 100*r.CornerYield, r.CornerEvals, r.CornerPass)
	fmt.Fprintf(w, "%-28s %12.4f %11.2f%% %12d\n",
		"MOHECO", 1e3*r.MohecoPower, 100*r.MohecoYield, r.MohecoEvals)
	fmt.Fprintf(w, "corner-method power delta vs MOHECO: %+.1f%%\n", 100*r.OverDesign)
	// The paper names two failure modes of non-statistical methods; report
	// which one this run exhibits.
	switch {
	case r.CornerYield < r.MohecoYield-0.02:
		fmt.Fprintln(w, "failure mode here: ACCURACY — the design passes every global corner yet")
		fmt.Fprintln(w, "loses real yield, because corners cannot represent intra-die mismatch")
		fmt.Fprintln(w, "(the paper: worst-case sensitivity analysis \"may harm the accuracy in")
		fmt.Fprintln(w, "nanometer technologies\").")
	case r.OverDesign > 0.02:
		fmt.Fprintln(w, "failure mode here: OVER-DESIGN — extra power buys corners that never")
		fmt.Fprintln(w, "co-occur statistically (the paper: \"it may result in serious design overkill\").")
	default:
		fmt.Fprintln(w, "the corner design happens to match MOHECO on this run; the paper's point")
		fmt.Fprintln(w, "is that nothing in the corner flow verifies the statistical yield.")
	}
}
