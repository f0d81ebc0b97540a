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
// both this one loop. A scenario's compile declares only what differs: its
// circuit, its cards and its measures.
type testbench struct {
	name  string    // error prefix
	x     []float64 // the design it is compiled at
	space *variation.Space
	ckt   *netlist.Circuit
	eng   *spice.Engine
	freqs []float64
	probe spice.Probe      // the output node, swept up to its unity crossing
	vin   *netlist.VSource // the input source: AC drive and, armed, the step

	// warm0 is the nominal operating point every sample's DC solve
	// warm-starts from (cold-start fallback on non-convergence). It is
	// fixed for the testbench's lifetime: a rolling warm state would make
	// each solve depend on which samples ran before it, which lane grouping
	// (and Workers=1-vs-N bit-identity) forbids. nil solves every sample
	// cold — the transient scenarios' determinism contract, and the
	// fallback when the nominal point does not converge.
	warm0 *spice.OPResult

	// cards is the bank of perturbed model cards the stamped devices point
	// at, one per variation slot the testbench stamps, and vals the source
	// values that follow them (servo bias, step levels): the complete
	// per-sample engine state. run snapshots them per lane, so the
	// LaneSetter switches lanes with plain copies, no recompute.
	cards []mos.Params
	vals  []*float64
	// mms are the cards' Pelgrom terms at their slots' gate areas, made
	// once per compiled design, and inter the sample's inter-die state.
	mms   []variation.Mismatch
	inter variation.Inter
	// follow, when set, rewrites the source values after the cards of a
	// sample are written.
	follow func()

	// tran, when set, is the transient every sample integrates after its
	// AC sweep (the time-domain scenarios).
	tran *spice.TranOptions
	// measures reduces one sample's operating point, bracketed probe record
	// r (on freqs) and, with tran set, transient tr (nil without) to its
	// performance vector, written into perf (perfs entries); run calls it
	// with that sample's state installed. The engine owns op, r and tr.
	measures func(perf []float64, op *spice.OPResult, r measure.Points, tr *spice.TranResult) error
	perfs    int

	// run's lane buffers, sized on first use: the per-lane snapshots of
	// cards and vals, the active mask, the transients' operating points and
	// the LaneSetter restoring a snapshot. wave is the transient measures'
	// output-waveform buffer.
	laneCards []mos.Params
	laneVals  []float64
	active    []bool
	tops      []*spice.OPResult
	set       spice.LaneSetter
	wave      []float64
}

// bank starts tb's card bank on the variation slots it stamps, at slot
// geometry geom (W and L by slot): each card its slot's deck card under
// the slot's own card name, with the slot's Pelgrom terms. It returns the
// bank's cards by slot, nil on the slots tb does not stamp, for the
// netlist builder.
func (tb *testbench) bank(space *variation.Space, geom [][2]float64, slots []int) []*mos.Params {
	tb.space = space
	tb.cards = make([]mos.Params, len(slots))
	tb.mms = make([]variation.Mismatch, len(slots))
	startBank(space, geom, slots, tb.cards, tb.mms)
	bySlot := make([]*mos.Params, len(geom))
	for i, slot := range slots {
		tb.cards[i].Name = slotCardName(slot)
		bySlot[slot] = &tb.cards[i]
	}
	return bySlot
}

// assemble compiles circuit c, whose perturbed cards are tb's bank, into
// tb: the engine (nodeset as its DC hint, lanes its lockstep lane count),
// the output probe, swept over freqs, and the input source.
func (tb *testbench) assemble(c *netlist.Circuit, nodeset map[string]float64, lanes int, freqs []float64) error {
	probe, err := outputProbe(c)
	if err != nil {
		return err
	}
	vin, err := inputSource(c)
	if err != nil {
		return err
	}
	eng, err := spice.New(c, spice.Options{Nodeset: nodeset, Lanes: lanes})
	if err != nil {
		return err
	}
	tb.ckt, tb.eng, tb.freqs, tb.probe, tb.vin = c, eng, freqs, probe, vin
	return nil
}

// setSample writes one sample's engine state (nil = nominal): the
// perturbed cards, then the source values that follow them.
func (tb *testbench) setSample(xi []float64) {
	tb.space.WriteCards(tb.cards, tb.mms, &tb.inter, xi)
	if tb.follow != nil {
		tb.follow()
	}
}

// warmStart solves the nominal operating point every sample warm-starts
// from. A non-converging nominal leaves warm0 nil and the samples solve
// cold.
func (tb *testbench) warmStart() {
	tb.setSample(nil)
	if op, err := tb.eng.DCOperatingPoint(); err == nil {
		tb.warm0 = op
	}
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
//
// The performance vectors are carved out of one backing array and every
// engine result is reused storage, so a call allocates the same handful of
// objects however many samples it holds.
func (tb *testbench) run(xis [][]float64) ([][]float64, []error) {
	perfs := make([][]float64, len(xis))
	errs := make([]error, len(xis))
	backing := make([]float64, len(xis)*tb.perfs)
	k := min(tb.eng.Lanes(), len(xis))
	tb.sizeLanes(k)
	active, tops, set := tb.active, tb.tops, tb.set
	for g := 0; g < len(xis); g += k {
		m := min(k, len(xis)-g)
		ops, dcErrs := tb.solveDC(xis[g:g+m], errs[g:g+m])
		rs, acErrs := tb.eng.ACBatchBracket(ops, tb.freqs, tb.probe.Node, set)
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
				i := (g + l) * tb.perfs
				perf := backing[i : i+tb.perfs : i+tb.perfs]
				if err = tb.measures(perf, ops[l], rs[l], tr); err == nil {
					perfs[g+l] = perf
				}
			}
			if err != nil {
				errs[g+l] = fmt.Errorf("%s: %w", tb.name, err)
			}
		}
	}
	return perfs, errs
}

// solveDC installs one lane group's samples xis (at most the width
// sizeLanes set) and solves their operating points in lockstep: a lane
// whose ξ is malformed gets its error in errs and stays inactive (nil
// operating point), the lanes past len(xis) too. The results are the
// engine's, as DCOperatingPointBatchFrom returns them.
func (tb *testbench) solveDC(xis [][]float64, errs []error) ([]*spice.OPResult, []error) {
	nc, nv := len(tb.cards), len(tb.vals)
	cards, vals, active := tb.laneCards, tb.laneVals, tb.active
	for l := range active {
		active[l] = false
		if l >= len(xis) {
			continue
		}
		if errs[l] = tb.space.CheckVector(xis[l]); errs[l] != nil {
			continue
		}
		tb.setSample(xis[l])
		copy(cards[l*nc:(l+1)*nc], tb.cards)
		for i, v := range tb.vals {
			vals[l*nv+i] = *v
		}
		active[l] = true
	}
	return tb.eng.DCOperatingPointBatchFrom(tb.warm0, active, tb.set)
}

// sizeLanes sizes run's lane buffers for k ≤ engine lanes. They are
// allocated once at the engine's lane count, so a testbench reused across
// batches of different widths never reallocates them.
func (tb *testbench) sizeLanes(k int) {
	if tb.active == nil {
		m := tb.eng.Lanes()
		tb.laneCards = make([]mos.Params, m*len(tb.cards))
		tb.laneVals = make([]float64, m*len(tb.vals))
		tb.active = make([]bool, m)
		tb.tops = make([]*spice.OPResult, m)
		tb.set = tb.setLane
	}
	tb.active, tb.tops = tb.active[:k], tb.tops[:k]
}

// setLane is run's LaneSetter: it restores lane l's snapshot of the cards
// and source values.
func (tb *testbench) setLane(l int) {
	nc, nv := len(tb.cards), len(tb.vals)
	copy(tb.cards, tb.laneCards[l*nc:(l+1)*nc])
	for i, v := range tb.vals {
		*v = tb.laneVals[l*nv+i]
	}
}

// outWave returns the probed output node's waveform of tr, in the
// testbench's reused buffer.
func (tb *testbench) outWave(tr *spice.TranResult) []float64 {
	if cap(tb.wave) < len(tr.V) {
		// Grow with the result's own storage, not point by point.
		tb.wave = make([]float64, 0, cap(tr.V))
	}
	tb.wave = tb.wave[:0]
	for _, v := range tr.V {
		tb.wave = append(tb.wave, v[tb.probe.Node])
	}
	return tb.wave
}

// stepTest is a transient scenario's step response: the step on the input
// source (amplitude, delay and edge time, riding on the input's DC bias),
// the window it is integrated over, and whether the performance vector
// carries the phase margin between GBW and the step measures.
type stepTest struct {
	amp, delay, rise float64
	pm               bool
	window           *TranConfig
}

// arm attaches the step to vin, from its DC value — the one way a
// testbench, nominal or compiled, gets its step.
func (s *stepTest) arm(vin *netlist.VSource) {
	vin.Pulse = &netlist.Pulse{V1: vin.DC, V2: vin.DC + s.amp, Delay: s.delay, Rise: s.rise, Width: 1}
}

// armStep makes tb a step-response testbench: the step armed on its input
// with levels that follow each sample's input bias, the window integrated
// after the AC sweep, and the measures [A0 dB, GBW Hz, (PM deg,) slew V/s,
// ts1% s, overshoot].
func (tb *testbench) armStep(s *stepTest) {
	vin := tb.vin
	s.arm(vin)
	pulse := vin.Pulse
	tb.vals = append(tb.vals, &pulse.V1, &pulse.V2)
	bias := tb.follow
	tb.follow = func() {
		if bias != nil {
			bias()
		}
		pulse.V1, pulse.V2 = vin.DC, vin.DC+s.amp
	}
	tb.tran = s.window.tranOptions()
	tb.measures = func(perf []float64, _ *spice.OPResult, r measure.Points, tr *spice.TranResult) error {
		a0dB, gbw, pm := bodeMeasures(tb.freqs, r, s.pm)
		slew, ts, os, err := s.window.stepResponse(tr.Times, tb.outWave(tr), s.delay)
		if err != nil {
			return err
		}
		perf[0], perf[1] = a0dB, gbw
		rest := perf[2:]
		if s.pm {
			perf[2], rest = pm, perf[3:]
		}
		rest[0], rest[1], rest[2] = slew, ts, os
		return nil
	}
}

// inputSource returns the testbench's input source VIN, which carries the
// AC drive and, on a transient scenario, the step.
func inputSource(c *netlist.Circuit) (*netlist.VSource, error) {
	for _, d := range c.Devices {
		if v, ok := d.(*netlist.VSource); ok && v.Name == "VIN" {
			return v, nil
		}
	}
	return nil, fmt.Errorf("circuits: testbench %q has no input source VIN", c.Title)
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

// mosIndex resolves a testbench transistor to its OPResult.MOS position, once
// per compile.
func mosIndex(eng *spice.Engine, name string) (int, error) {
	i, ok := eng.MOSIndex(name)
	if !ok {
		return 0, fmt.Errorf("circuits: testbench has no transistor %q", name)
	}
	return i, nil
}

// outputProbe is the AC probe of every spice testbench: the "out" node,
// swept up to its unity crossing — all the DC-gain, GBW and phase-margin
// measures read. run takes its bracketed sweep (ACBatchBracket); the
// dense stop-at-unity prefix is the reference the bracketed records are
// checked against.
func outputProbe(c *netlist.Circuit) (spice.Probe, error) {
	out, ok := c.FindNode("out")
	if !ok {
		return spice.Probe{}, fmt.Errorf("circuits: testbench %q has no \"out\" node", c.Title)
	}
	return spice.Probe{Node: out, StopAtUnity: true}, nil
}

// bodeMeasures reads a probed output record r on freqs (the bracketed
// sweep's, or a dense prefix): DC gain in dB, the unity-gain frequency and,
// with withPM, the phase margin there (zero without). A sweep that never
// crosses unity reports zero GBW and PM, and an unmeasurable margin zero
// PM, so the specs register the failure smoothly instead of erroring. The
// measures are the lazy ones: bit for bit NewBode's on the dense prefix,
// with logarithms taken only at the points they read and phases unwrapped
// only for a scenario with a phase-margin spec.
func bodeMeasures(freqs []float64, r measure.Points, withPM bool) (a0dB, gbw, pm float64) {
	a0dB = measure.DCGainDBOf(r.H)
	gbw, err := measure.UnityCrossingOf(freqs, r)
	if err != nil {
		gbw = 0
	}
	if withPM && gbw > 0 {
		pm = measure.PhaseMarginOf(freqs, r, gbw)
	}
	return a0dB, gbw, pm
}
