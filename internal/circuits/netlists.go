package circuits

import (
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
)

// CommonSourceNetlist builds a transistor-level netlist of the quickstart
// common-source stage for the given design, suitable for the MNA engine.
// It is used to cross-check the behavioural evaluator against full circuit
// simulation and by the spicedemo example.
func (p *CommonSource) CommonSourceNetlist(x []float64) (*netlist.Circuit, error) {
	if len(x) != p.Dim() {
		return nil, errDim("common-source netlist", len(x), p.Dim())
	}
	vdd := p.tech.VDD
	ib := x[0]
	w1, l1, w2 := x[1], x[2], x[3]
	k := mirrorRatio

	c := netlist.New("common-source stage")
	nch := p.tech.Model(false)
	pch := p.tech.Model(true)
	c.Models[nch.Name] = nch
	c.Models[pch.Name] = pch

	c.AddV("VDD", "vdd", "0", vdd, 0)
	// Bias branch: current source into the PMOS diode.
	c.AddI("IB", "bp", "0", ib/k, 0)
	c.AddM("MB", "bp", "bp", "vdd", "vdd", pch, w2/k, p.loadLen, 1)
	// Load mirror.
	c.AddM("M2", "out", "bp", "vdd", "vdd", pch, w2, p.loadLen, 1)
	// Driver with its gate at the bias voltage that conducts the mirrored
	// current (the behavioural model's input servo); AC input rides on it.
	drv := &mos.Device{Params: nch, W: w1, L: l1, M: 1}
	bias := &mos.Device{Params: pch, W: w2 / k, L: p.loadLen, M: 1}
	load := &mos.Device{Params: pch, W: w2, L: p.loadLen, M: 1}
	id := mirror(bias, load, ib/k, vdd/2)
	vg := drv.VgsForID(id, 0)
	c.AddV("VIN", "in", "0", vg, 1)
	c.AddM("M1", "out", "in", "0", "0", nch, w1, l1, 1)
	c.AddC("CL", "out", "0", p.CL)
	return c, nil
}

// fcCards names the model cards stamped into the half-circuit testbench,
// one per transistor instance. The nominal netlist passes the shared deck
// models; the simulator-in-the-loop problem passes private per-sample
// perturbed cards that it rewrites in place between solves.
type fcCards struct {
	in, nsink, ncas, pcas, psrc, biasN, biasP *mos.Params
}

// nominalFCCards returns the unperturbed deck models for every slot.
func (p *FoldedCascode) nominalFCCards() fcCards {
	nch := p.tech.Model(false)
	pch := p.tech.Model(true)
	return fcCards{in: pch, nsink: nch, ncas: nch, pcas: pch, psrc: pch, biasN: nch, biasP: pch}
}

// buildFoldedCascodeTB constructs the half-circuit transistor-level
// testbench of the folded-cascode amplifier (one signal path with ideal
// bias rails) at design x with the given model cards, plus a nodeset of
// expected node voltages helping Newton through the CMFB loop. Bias rail
// voltages track the nominal devices (ideal references, xi-independent) as
// an HSPICE MC deck's bias sources would.
func (p *FoldedCascode) buildFoldedCascodeTB(x []float64, cards fcCards) (*netlist.Circuit, map[string]float64, error) {
	if len(x) != p.Dim() {
		return nil, nil, errDim("folded-cascode netlist", len(x), p.Dim())
	}
	vdd := p.tech.VDD
	it, ic := x[0], x[1]
	w1, l1 := x[2], x[3]
	w3, w5, w7, w9 := x[4], x[5], x[6], x[7]
	lcs, lcas := x[8], x[9]
	is := it/2 + ic

	nch := p.tech.Model(false)
	pch := p.tech.Model(true)

	c := netlist.New("folded-cascode half circuit")
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
	c.AddM("M1", "fold", "in", "src", "vdd", cards.in, w1, l1, 1)

	// NMOS sink at the folding node, biased by a diode reference with a
	// DC-only common-mode feedback correction: the output is sensed through
	// a very slow RC lowpass so the loop centres the DC operating point
	// without loading the AC response (the role the CMFB amp plays in the
	// fully differential circuit).
	c.AddI("IBN", "vdd", "bn", is/mirrorRatio, 0)
	c.AddM("MBN", "bn", "bn", "0", "0", cards.biasN, w3/mirrorRatio, lcs, 1)
	c.AddR("RCM", "out", "vsense", 1e9)
	c.AddC("CCM", "vsense", "0", 1.0)
	c.AddV("VREF", "vref", "0", vdd/2, 0)
	c.AddE("ECM", "ncm", "bn", "vsense", "vref", 2)
	c.AddM("M3", "fold", "ncm", "0", "0", cards.nsink, w3, lcs, 1)

	// NMOS cascode with a fixed gate bias computed as in the evaluator.
	ncasDev := &mos.Device{Params: nch, W: w5, L: lcas, M: 1}
	nsinkNom := &mos.Device{Params: nch, W: w3, L: lcs, M: 1}
	vbnc := nsinkNom.VDsatForID(is) + p.msBias + ncasDev.VgsForID(ic, 0)
	c.AddV("VBNC", "bnc", "0", vbnc, 0)
	c.AddM("M5", "out", "bnc", "fold", "0", cards.ncas, w5, lcas, 1)

	// PMOS source and cascode on top.
	c.AddI("IBP", "bp", "0", ic/mirrorRatio, 0)
	c.AddM("MBP", "bp", "bp", "vdd", "vdd", cards.biasP, w9/mirrorRatio, lcs, 1)
	c.AddM("M9", "x", "bp", "vdd", "vdd", cards.psrc, w9, lcs, 1)
	psrcNom := &mos.Device{Params: pch, W: w9, L: lcs, M: 1}
	pcasDev := &mos.Device{Params: pch, W: w7, L: lcas, M: 1}
	vbpc := vdd - psrcNom.VDsatForID(ic) - p.msBias - pcasDev.VgsForID(ic, 0)
	c.AddV("VBPC", "bpc", "0", vbpc, 0)
	c.AddM("M7", "out", "bpc", "x", "vdd", cards.pcas, w7, lcas, 1)

	c.AddC("CL", "out", "0", p.CL)

	// Expected operating region from the behavioural model, used as a
	// .nodeset to help Newton through the CMFB loop.
	inDev := &mos.Device{Params: pch, W: w1, L: l1, M: 1}
	biasNDev := &mos.Device{Params: nch, W: w3 / mirrorRatio, L: lcs, M: 1}
	biasPDev := &mos.Device{Params: pch, W: w9 / mirrorRatio, L: lcs, M: 1}
	vfold := nsinkNom.VDsatForID(is) + p.msBias
	vx := vdd - psrcNom.VDsatForID(ic) - p.msBias
	vbn := biasNDev.VgsForID(is/mirrorRatio, 0)
	nodeset := map[string]float64{
		"src":    p.VcmIn + inDev.VgsForID(it/2, 0),
		"fold":   vfold,
		"out":    vdd / 2,
		"x":      vx,
		"bn":     vbn,
		"ncm":    vbn,
		"bp":     vdd - biasPDev.VgsForID(ic/mirrorRatio, 0),
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
// FoldedCascodeSpice runs the same testbench per Monte-Carlo sample.
func (p *FoldedCascode) FoldedCascodeNetlist(x []float64) (*netlist.Circuit, map[string]float64, error) {
	return p.buildFoldedCascodeTB(x, p.nominalFCCards())
}

func errDim(what string, got, want int) error {
	return &dimError{what: what, got: got, want: want}
}

type dimError struct {
	what      string
	got, want int
}

func (e *dimError) Error() string {
	return e.what + ": wrong design dimension"
}
