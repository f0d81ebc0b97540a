package circuits

import (
	"cmp"
	"fmt"

	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/spice"
	"github.com/eda-go/moheco/internal/variation"
)

// testbench is the compiled per-design evaluation state every spice
// scenario shares: netlist, engine (symbolic factorization included) and
// perturbed model cards are built once per design, and run pushes the
// Monte-Carlo samples through them — point-wise and lockstep evaluation are
// both this one loop. A scenario declares only what differs:
// its testbench, its per-sample engine state and its measures.
type testbench struct {
	name  string // error prefix
	space *variation.Space
	eng   *spice.Engine
	freqs []float64
	probe spice.Probe // the output node, swept up to its unity crossing

	// warm0 is the nominal operating point every sample's DC solve
	// warm-starts from (cold-start fallback on non-convergence). It is
	// fixed for the testbench's lifetime: a rolling warm state would make
	// each solve depend on which samples ran before it, which lane grouping
	// (and Workers=1-vs-N bit-identity) forbids. nil solves every sample
	// cold — the transient scenarios' determinism contract, and the
	// fallback when the nominal point does not converge.
	warm0 *spice.OPResult

	// cards and vals are the complete per-sample engine state: the model
	// cards the devices point at and the source values (servo bias, step
	// levels) setSample rewrites. run snapshots them per lane, so the
	// LaneSetter switches lanes with plain copies, no recompute.
	cards []*mos.Params
	vals  []*float64

	// setSample writes one sample's engine state (nil = nominal).
	setSample func(xi []float64)
	// tran, when set, is the transient every sample integrates after its
	// AC sweep (the time-domain scenarios).
	tran *spice.TranOptions
	// measures reduces one sample's operating point, probed sweep h (on
	// freqs[:len(h)]) and, with tran set, transient tr (nil without) to its
	// performance vector; run calls it with that sample's state installed.
	measures func(op *spice.OPResult, h []complex128, tr *spice.TranResult) ([]float64, error)
}

// run evaluates xis in groups of K = min(engine lanes, len(xis)) samples —
// [0,K), [K,2K), … in order, the last group partially active — so each
// group's DC Newton iterations, AC frequency points and transient steps
// factor and solve in one lockstep traversal. A group's transients run
// after its AC sweep, for the lanes whose DC and AC solves succeeded.
// Grouping is a pure function of the call, and by the lane determinism
// contract every sample gets the bits of its one-lane solve: a one-sample call (point-wise Evaluate) runs a one-lane group and
// lands on the same result as any batch. A sample that fails —
// malformed ξ, non-convergence — errors alone; the yield machinery counts
// it as a failed chip, the path a crashing HSPICE run takes in the paper's
// flow.
func (tb *testbench) run(xis [][]float64) ([][]float64, []error) {
	perfs := make([][]float64, len(xis))
	errs := make([]error, len(xis))
	k := min(tb.eng.Lanes(), len(xis))
	nc, nv := len(tb.cards), len(tb.vals)
	cards := make([]mos.Params, k*nc)
	vals := make([]float64, k*nv)
	active := make([]bool, k)
	tops := make([]*spice.OPResult, k)
	set := func(l int) {
		for i, c := range tb.cards {
			*c = cards[l*nc+i]
		}
		for i, v := range tb.vals {
			*v = vals[l*nv+i]
		}
	}
	for g := 0; g < len(xis); g += k {
		m := min(k, len(xis)-g)
		for l := range active {
			active[l] = false
			if l >= m {
				continue
			}
			if errs[g+l] = tb.space.CheckVector(xis[g+l]); errs[g+l] != nil {
				continue
			}
			tb.setSample(xis[g+l])
			for i, c := range tb.cards {
				cards[l*nc+i] = *c
			}
			for i, v := range tb.vals {
				vals[l*nv+i] = *v
			}
			active[l] = true
		}
		ops, dcErrs := tb.eng.DCOperatingPointBatchFrom(tb.warm0, active, set)
		hs, acErrs := tb.eng.ACBatchProbe(ops, tb.freqs, tb.probe, set)
		var trs []*spice.TranResult
		var trErrs []error
		if tb.tran != nil {
			for l := range tops {
				tops[l] = ops[l]
				if acErrs[l] != nil {
					tops[l] = nil
				}
			}
			trs, trErrs = tb.eng.TransientBatch(tops, *tb.tran, set)
		}
		for l := 0; l < m; l++ {
			if !active[l] {
				continue
			}
			err := cmp.Or(dcErrs[l], acErrs[l])
			var tr *spice.TranResult
			if err == nil && trs != nil {
				tr, err = trs[l], trErrs[l]
			}
			if err == nil {
				set(l)
				perfs[g+l], err = tb.measures(ops[l], hs[l], tr)
			}
			if err != nil {
				errs[g+l] = fmt.Errorf("%s: %w", tb.name, err)
			}
		}
	}
	return perfs, errs
}

// failAll is the batch result of a design whose testbench does not compile:
// every sample carries the compile error.
func failAll(n int, err error) ([][]float64, []error) {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return make([][]float64, n), errs
}

// first unpacks a one-sample batch — how every spice scenario's point-wise
// Evaluate delegates to its EvaluateBatch.
func first(perfs [][]float64, errs []error) ([]float64, error) { return perfs[0], errs[0] }

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

// bodeMeasures reads a probed output sweep h (on freqs[:len(h)]): DC gain
// in dB, the unity-gain frequency and, with withPM, the phase margin there
// (zero without). A sweep that never crosses unity reports zero GBW and PM,
// and an unmeasurable margin zero PM, so the specs register the failure
// smoothly instead of erroring. The measures are the lazy ones: bit for bit
// NewBode's, with logarithms taken only at the points they read and phases
// unwrapped only for a scenario with a phase-margin spec.
func bodeMeasures(freqs []float64, h []complex128, withPM bool) (a0dB, gbw, pm float64) {
	a0dB = measure.DCGainDBOf(h)
	gbw, err := measure.UnityCrossingOf(freqs, h)
	if err != nil {
		gbw = 0
	}
	if withPM && gbw > 0 {
		pm = measure.PhaseMarginOf(freqs, h, gbw)
	}
	return a0dB, gbw, pm
}
