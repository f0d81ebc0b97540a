package circuits

import (
	"fmt"
	"math"

	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/spice"
)

// CommonSourceNetlist builds a transistor-level netlist of the quickstart
// common-source stage for the given design with the deck's models, for the
// MNA engine: the cross-check of the behavioural evaluator against full
// circuit simulation, netlistsim and the spicedemo example.
func (p *CommonSource) CommonSourceNetlist(x []float64) (*netlist.Circuit, error) {
	return p.buildCommonSourceTB(x, p.deckCards())
}

// nominalNetlist is CommonSourceNetlist in the registry's netlist form.
func (p *CommonSource) nominalNetlist(x []float64) (*netlist.Circuit, map[string]float64, error) {
	c, err := p.CommonSourceNetlist(x)
	return c, nil, err
}

// buildCommonSourceTB constructs the common-source testbench at design x
// with the given model cards, by variation slot: the nominal netlist
// passes the deck's models, a compiled testbench its bank of perturbed
// cards, which it rewrites in place between solves. The input source sits
// at the nominal servo bias; a compiled testbench rewrites it per sample
// from its perturbed cards.
func (p *CommonSource) buildCommonSourceTB(x []float64, cards []*mos.Params) (*netlist.Circuit, error) {
	if err := p.checkDesign(x); err != nil {
		return nil, err
	}
	ib := clampMin(x[0], 1e-7)
	g := p.csGeometry(x)
	nch, pch := p.tech.Model(false), p.tech.Model(true)
	nominal := csDevices(&g, p.deckCards())

	c := netlist.New("common-source stage")
	c.Models[nch.Name] = nch
	c.Models[pch.Name] = pch
	c.AddV("VDD", "vdd", "0", p.tech.VDD, 0)
	// Bias branch: current source into the PMOS diode.
	c.AddI("IB", "bp", "0", ib/mirrorRatio, 0)
	c.AddM("MB", "bp", "bp", "vdd", "vdd", cards[csBias], g[csBias][0], g[csBias][1], 1)
	// Load mirror.
	c.AddM("M2", "out", "bp", "vdd", "vdd", cards[csLoad], g[csLoad][0], g[csLoad][1], 1)
	// Driver with its gate at the bias voltage that conducts the mirrored
	// current (the behavioural model's input servo); AC input rides on it.
	c.AddV("VIN", "in", "0", p.servo(&nominal, ib), 1)
	c.AddM("M1", "out", "in", "0", "0", cards[csDriver], g[csDriver][0], g[csDriver][1], 1)
	c.AddC("CL", "out", "0", p.CL)
	return c, nil
}

// csBench is the compiled common-source testbench of one design. Each
// sample rewrites the three perturbed model cards in place (the Mosfet
// instances and devs point at them) and then the input-servo bias, which
// tracks the perturbed mirror as the behavioural model's servo does.
type csBench struct {
	testbench
	p    *CommonSource
	ib   float64
	devs [csNumDevices]mos.Device
	// m1 and m2 are the driver's and the load's OPResult.MOS positions.
	m1, m2 int
}

// spiceBench is the common-source scenarios' compile.
func (p *CommonSource) spiceBench(x []float64, lanes int) (*testbench, error) {
	b, err := p.newBench(x, lanes)
	if err != nil {
		return nil, err
	}
	return &b.testbench, nil
}

// newBench compiles the common-source testbench at design x on an engine
// of the given lane count, with the AC measures.
func (p *CommonSource) newBench(x []float64, lanes int) (*csBench, error) {
	g := p.csGeometry(x)
	b := &csBench{p: p, ib: clampMin(x[0], 1e-7)}
	cards := b.bank(p.space, g[:], []int{csDriver, csLoad, csBias})
	c, err := p.buildCommonSourceTB(x, cards)
	if err != nil {
		return nil, err
	}
	b.devs = csDevices(&g, cards)
	if err := b.assemble(c, nil, lanes, spice.LogSpace(1e3, 5e9, 8)); err != nil {
		return nil, err
	}
	if b.m1, err = mosIndex(b.eng, "M1"); err != nil {
		return nil, err
	}
	if b.m2, err = mosIndex(b.eng, "M2"); err != nil {
		return nil, err
	}
	b.vals = []*float64{&b.vin.DC}
	b.follow = b.setServo
	b.measures, b.perfs = b.acMeasures, len(p.specs)
	return b, nil
}

// setServo writes the input-servo bias tracking the perturbed mirror.
func (b *csBench) setServo() { b.vin.DC = b.p.servo(&b.devs, b.ib) }

// acMeasures writes the performance vector of one sample's solved
// operating point and probed AC record r into perf: [A0 dB, GBW Hz, power
// W, satmargin V].
func (b *csBench) acMeasures(perf []float64, op *spice.OPResult, r measure.Points, _ *spice.TranResult) error {
	vdd := b.p.tech.VDD
	a0dB, gbw, _ := bodeMeasures(b.freqs, r, false)

	// Power from the VDD branch current (the source supplies the mirror
	// and the load branch).
	power := 0.0
	if len(op.BranchI) > 0 {
		power = vdd * math.Abs(op.BranchI[0])
	}

	// Saturation margin from the measured operating points; the probe is
	// the "out" node.
	vout := op.V[b.probe.Node]
	m1, m2 := &op.MOS[b.m1], &op.MOS[b.m2]
	margin := minOf(
		vout-m1.VDsat-b.p.msSat,
		(vdd-vout)-m2.VDsat-b.p.msSat,
	)
	perf[0], perf[1], perf[2], perf[3] = a0dB, gbw, power, margin
	return nil
}

// fcStamped are the variation slots of the half-circuit testbench's
// transistors: one signal path (M1, M3, M5, M7, M9) and its two bias
// diodes (MBN, MBP).
var fcStamped = []int{fcInL, fcNSinkL, fcNCasL, fcPCasL, fcPSrcL, fcBiasN, fcBiasP}

// buildFoldedCascodeTB constructs the half-circuit transistor-level
// testbench of the folded-cascode amplifier (one signal path with ideal
// bias rails) at design x with the given model cards, by variation slot
// (only fcStamped's are read), plus a nodeset of expected node voltages
// helping Newton through the CMFB loop. Bias rail voltages track the
// nominal devices (ideal references, xi-independent) as an HSPICE MC
// deck's bias sources would.
func (p *FoldedCascode) buildFoldedCascodeTB(x []float64, cards []*mos.Params) (*netlist.Circuit, map[string]float64, error) {
	if err := p.checkDesign(x); err != nil {
		return nil, nil, err
	}
	vdd := p.tech.VDD
	it, ic := x[0], x[1]
	is := it/2 + ic
	g := fcGeometry(x)
	nominal := func(slot int) *mos.Device { return p.deckDevice(g[:], slot) }
	c := netlist.New("folded-cascode half circuit")
	// stamp adds the transistor of a slot on its card from cards.
	stamp := func(name, d, gate, s, b string, slot int) {
		c.AddM(name, d, gate, s, b, cards[slot], g[slot][0], g[slot][1], 1)
	}
	nch := p.tech.Model(false)
	pch := p.tech.Model(true)
	c.Models[nch.Name] = nch
	c.Models[pch.Name] = pch
	c.AddV("VDD", "vdd", "0", vdd, 0)

	// Ideal tail current into the PMOS input device (half circuit: IT/2).
	// The huge capacitor recreates the differential pair's virtual ground
	// at the tail node for AC analysis.
	c.AddI("ITAIL", "vdd", "src", it/2, 0)
	c.AddC("CTAIL", "src", "0", 1.0)
	// Input device M1: gate at input common mode with AC drive.
	c.AddV("VIN", "in", "0", p.VcmIn, 1)
	stamp("M1", "fold", "in", "src", "vdd", fcInL)

	// NMOS sink at the folding node, biased by a diode reference with a
	// DC-only common-mode feedback correction: the output is sensed through
	// a very slow RC lowpass so the loop centres the DC operating point
	// without loading the AC response (the role the CMFB amp plays in the
	// fully differential circuit).
	c.AddI("IBN", "vdd", "bn", is/mirrorRatio, 0)
	stamp("MBN", "bn", "bn", "0", "0", fcBiasN)
	c.AddR("RCM", "out", "vsense", 1e9)
	c.AddC("CCM", "vsense", "0", 1.0)
	c.AddV("VREF", "vref", "0", vdd/2, 0)
	c.AddE("ECM", "ncm", "bn", "vsense", "vref", 2)
	stamp("M3", "fold", "ncm", "0", "0", fcNSinkL)

	// NMOS cascode with a fixed gate bias computed as in the evaluator.
	nsinkNom := nominal(fcNSinkL)
	vbnc := nsinkNom.VDsatForID(is) + p.msBias + nominal(fcNCasL).VgsForID(ic, 0)
	c.AddV("VBNC", "bnc", "0", vbnc, 0)
	stamp("M5", "out", "bnc", "fold", "0", fcNCasL)

	// PMOS source and cascode on top.
	c.AddI("IBP", "bp", "0", ic/mirrorRatio, 0)
	stamp("MBP", "bp", "bp", "vdd", "vdd", fcBiasP)
	stamp("M9", "x", "bp", "vdd", "vdd", fcPSrcL)
	psrcNom := nominal(fcPSrcL)
	vbpc := vdd - psrcNom.VDsatForID(ic) - p.msBias - nominal(fcPCasL).VgsForID(ic, 0)
	c.AddV("VBPC", "bpc", "0", vbpc, 0)
	stamp("M7", "out", "bpc", "x", "vdd", fcPCasL)

	c.AddC("CL", "out", "0", p.CL)

	// Expected operating region from the behavioural model, used as a
	// .nodeset to help Newton through the CMFB loop.
	vfold := nsinkNom.VDsatForID(is) + p.msBias
	vx := vdd - psrcNom.VDsatForID(ic) - p.msBias
	vbn := nominal(fcBiasN).VgsForID(is/mirrorRatio, 0)
	nodeset := map[string]float64{
		"src":    p.VcmIn + nominal(fcInL).VgsForID(it/2, 0),
		"fold":   vfold,
		"out":    vdd / 2,
		"x":      vx,
		"bn":     vbn,
		"ncm":    vbn,
		"bp":     vdd - nominal(fcBiasP).VgsForID(ic/mirrorRatio, 0),
		"vsense": vdd / 2,
		"vref":   vdd / 2,
		"bnc":    vbnc,
		"bpc":    vbpc,
	}
	return c, nodeset, nil
}

// FoldedCascodeNetlist builds the half-circuit testbench with the nominal
// deck models, for engine cross-checks and netlistsim. The behavioural
// evaluator remains the reference for the paper's statistical loops;
// NewFoldedCascodeSpice runs the same testbench per Monte-Carlo sample.
func (p *FoldedCascode) FoldedCascodeNetlist(x []float64) (*netlist.Circuit, map[string]float64, error) {
	return p.buildFoldedCascodeTB(x, p.deckCards())
}

// fcBench is the compiled folded-cascode testbench of one design; each
// sample rewrites the seven perturbed model cards in place.
type fcBench struct {
	testbench
	p *FoldedCascode
	// sat is the signal path M1, M3, M5, M7, M9, resolved at compile.
	sat [len(fcSat)]fcSatDevice
}

// fcSatDevice is one signal-path transistor of the saturation-margin and
// swing measures: its OPResult.MOS position and the two nodes its |vds|
// spans.
type fcSatDevice struct {
	mos, d, s int
}

// fcSat names the signal-path devices of fcBench.sat, in order, with the
// nodes of their drain-source voltage.
var fcSat = [5]struct{ dev, d, s string }{
	{"M1", "fold", "src"},
	{"M3", "fold", "0"},
	{"M5", "out", "fold"},
	{"M7", "out", "x"},
	{"M9", "x", "vdd"},
}

// spiceBench is the folded-cascode scenarios' compile.
func (p *FoldedCascode) spiceBench(x []float64, lanes int) (*testbench, error) {
	b, err := p.newBench(x, lanes)
	if err != nil {
		return nil, err
	}
	return &b.testbench, nil
}

// newBench compiles the folded-cascode testbench at design x on an engine
// of the given lane count, with the AC measures.
func (p *FoldedCascode) newBench(x []float64, lanes int) (*fcBench, error) {
	g := fcGeometry(x)
	b := &fcBench{p: p}
	c, nodeset, err := p.buildFoldedCascodeTB(x, b.bank(p.space, g[:], fcStamped))
	if err != nil {
		return nil, err
	}
	if err := b.assemble(c, nodeset, lanes, spice.LogSpace(1e3, 1e9, 8)); err != nil {
		return nil, err
	}
	for i, sd := range fcSat {
		m, err := mosIndex(b.eng, sd.dev)
		if err != nil {
			return nil, err
		}
		d, dok := c.FindNode(sd.d)
		s, sok := c.FindNode(sd.s)
		if !dok || !sok {
			return nil, fmt.Errorf("circuits: testbench lacks node %q or %q", sd.d, sd.s)
		}
		b.sat[i] = fcSatDevice{mos: m, d: d, s: s}
	}
	b.measures, b.perfs = b.acMeasures, len(p.specs)
	return b, nil
}

// acMeasures writes the performance vector of one sample's solved
// operating point and probed AC record r into perf: [A0 dB, GBW Hz, PM deg,
// OS V, power W, satmargin V].
func (b *fcBench) acMeasures(perf []float64, op *spice.OPResult, r measure.Points, _ *spice.TranResult) error {
	vdd := b.p.tech.VDD
	a0dB, gbw, pm := bodeMeasures(b.freqs, r, true)

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
	for i, sd := range b.sat {
		vdsat[i] = op.MOS[sd.mos].VDsat
		if m := math.Abs(op.V[sd.d]-op.V[sd.s]) - vdsat[i]; m < satMargin {
			satMargin = m
		}
	}

	// Output swing from the measured saturation voltages, as in the
	// behavioural evaluator (differential peak-to-peak across both rails):
	// M9 and M7 below the upper rail, M3 and M5 above ground.
	vmax := vdd - vdsat[4] - vdsat[3] - b.p.msSwing
	vmin := vdsat[1] + vdsat[2] + b.p.msSwing
	os := 2 * (vmax - vmin)

	perf[0], perf[1], perf[2], perf[3], perf[4], perf[5] = a0dB, gbw, pm, os, power, satMargin
	return nil
}
