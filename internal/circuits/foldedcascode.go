package circuits

import (
	"math"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/pdk"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/variation"
)

// FoldedCascode is the paper's example 1: a fully differential folded-
// cascode amplifier in 0.35µm CMOS with 3.3V supply. PMOS input pair on top,
// NMOS current sinks and cascodes below the folding nodes, PMOS cascodes and
// sources above the outputs, and a four-diode bias chain — 15 transistors,
// giving 15×4 + 20 = 80 process-variation variables as in the paper.
//
// Design variables (10):
//
//	x[0] tail current IT (A)          x[5] NMOS cascode width W5 (m)
//	x[1] cascode branch current IC    x[6] PMOS cascode width W7 (m)
//	x[2] input pair width W1 (m)      x[7] PMOS source width W9 (m)
//	x[3] input pair length L1 (m)     x[8] source/sink length Lcs (m)
//	x[4] NMOS sink width W3 (m)       x[9] cascode length Lcas (m)
//
// Specifications (paper §3.2): A0 ≥ 70 dB, GBW ≥ 40 MHz, PM ≥ 60°,
// output swing ≥ 4.6 V (differential pp), power ≤ 1.07 mW, and all
// transistors saturated (satmargin ≥ 0).
type FoldedCascode struct {
	frame

	// CL is the single-ended load capacitance (F).
	CL float64
	// VcmIn is the input common-mode voltage (V).
	VcmIn float64
	// msSwing is the swing headroom margin per rail (V).
	msSwing float64
	// msBias is the bias-chain saturation headroom (V).
	msBias float64
	// cmfbRange is the usable common-mode feedback correction range (V).
	cmfbRange float64
}

// Variation slot indices for the 15 transistors.
const (
	fcTail = iota
	fcInL
	fcInR
	fcNSinkL
	fcNSinkR
	fcNCasL
	fcNCasR
	fcPCasL
	fcPCasR
	fcPSrcL
	fcPSrcR
	fcBiasP
	fcBiasN
	fcBiasNC
	fcBiasPC
	fcNumDevices
)

// NewFoldedCascode builds the example-1 problem on the 0.35µm deck.
func NewFoldedCascode() *FoldedCascode {
	tech := pdk.C035()
	slots := []variation.Slot{
		{Name: "M0", PMOS: true},  // tail
		{Name: "M1", PMOS: true},  // input left
		{Name: "M2", PMOS: true},  // input right
		{Name: "M3", PMOS: false}, // nsink left
		{Name: "M4", PMOS: false}, // nsink right
		{Name: "M5", PMOS: false}, // ncas left
		{Name: "M6", PMOS: false}, // ncas right
		{Name: "M7", PMOS: true},  // pcas left
		{Name: "M8", PMOS: true},  // pcas right
		{Name: "M9", PMOS: true},  // psrc left
		{Name: "M10", PMOS: true}, // psrc right
		{Name: "B1", PMOS: true},  // psrc/tail bias diode
		{Name: "B2", PMOS: false}, // nsink bias diode
		{Name: "B3", PMOS: false}, // ncas gate bias
		{Name: "B4", PMOS: true},  // pcas gate bias
	}
	// The reference design meets all specs at the nominal process point
	// with a Monte-Carlo yield near 100% (50k-sample reference estimate ≈
	// 99.96%); it was produced by a MOHECO run on this problem.
	return &FoldedCascode{
		frame: frame{
			name:  "folded-cascode-0.35um",
			tag:   "folded-cascode",
			tech:  tech,
			space: variation.New(tech, slots),
			specs: []constraint.Spec{
				{Name: "A0", Sense: constraint.AtLeast, Bound: 70, Unit: "dB", Scale: 70},
				{Name: "GBW", Sense: constraint.AtLeast, Bound: 40e6, Unit: "Hz"},
				{Name: "PM", Sense: constraint.AtLeast, Bound: 60, Unit: "deg"},
				{Name: "OS", Sense: constraint.AtLeast, Bound: 4.6, Unit: "V"},
				{Name: "power", Sense: constraint.AtMost, Bound: 1.07e-3, Unit: "W"},
				{Name: "satmargin", Sense: constraint.AtLeast, Bound: 0, Scale: 0.3, Unit: "V"},
			},
			lo: []float64{20e-6, 20e-6, 10e-6, 0.35e-6, 5e-6, 5e-6, 10e-6, 10e-6, 0.5e-6, 0.35e-6},
			hi: []float64{600e-6, 600e-6, 1500e-6, 2e-6, 800e-6, 800e-6, 1200e-6, 1200e-6, 3e-6, 2e-6},
			ref: []float64{
				160e-6,   // IT
				41.8e-6,  // IC
				266.6e-6, // W1
				0.35e-6,  // L1
				334.8e-6, // W3
				54.4e-6,  // W5
				18.2e-6,  // W7
				44.6e-6,  // W9
				3.0e-6,   // Lcs
				0.375e-6, // Lcas
			},
		},
		CL:        6e-12,
		VcmIn:     tech.VDD / 2,
		msSwing:   0.05,
		msBias:    0.10,
		cmfbRange: 0.25,
	}
}

// fcGeometry returns the width and length of each transistor at design x,
// by variation slot: the one statement of the circuit's sizing, which the
// behavioural evaluator and the spice testbench both read.
func fcGeometry(x []float64) [fcNumDevices][2]float64 {
	it := clampMin(x[0], 1e-6)
	ic := clampMin(x[1], 1e-6)
	w1, l1 := x[2], x[3]
	w3, w5, w7, w9 := x[4], x[5], x[6], x[7]
	lcs, lcas := x[8], x[9]
	// Tail mirrors the PMOS source bias line; ratio sets its width.
	ratio := it / ic
	if ratio < 0.1 {
		ratio = 0.1
	}
	if ratio > 50 {
		ratio = 50
	}
	w0 := w9 * ratio
	k := mirrorRatio
	return [fcNumDevices][2]float64{
		fcTail: {w0, lcs}, fcInL: {w1, l1}, fcInR: {w1, l1},
		fcNSinkL: {w3, lcs}, fcNSinkR: {w3, lcs},
		fcNCasL: {w5, lcas}, fcNCasR: {w5, lcas},
		fcPCasL: {w7, lcas}, fcPCasR: {w7, lcas},
		fcPSrcL: {w9, lcs}, fcPSrcR: {w9, lcs},
		fcBiasP: {w9 / k, lcs}, fcBiasN: {w3 / k, lcs},
		fcBiasNC: {w5 / k, lcas}, fcBiasPC: {w7 / k, lcas},
	}
}

// Evaluate implements problem.Problem as a one-sample EvaluateBatch. The
// returned vector is aligned with Specs(): [A0 dB, GBW Hz, PM deg, OS V,
// power W, satmargin V].
func (p *FoldedCascode) Evaluate(x, xi []float64) ([]float64, error) {
	var perf [1][]float64
	var err [1]error
	p.evaluate(x, [][]float64{xi}, perf[:], err[:])
	return perf[0], err[0]
}

// EvaluateBatch implements problem.BatchEvaluator. The design-only work —
// slot geometry, the Pelgrom factors of each slot's gate area and the
// nominal bias set points — runs once per batch; each sample rewrites the
// perturbed cards in place, and the performance vectors share one backing
// array. Every sample gets Evaluate's bits.
func (p *FoldedCascode) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	perfs, errs := make([][]float64, len(xis)), make([]error, len(xis))
	p.evaluate(x, xis, perfs, errs)
	return perfs, errs
}

// evaluate writes the performances of x under each xis[s] to perfs[s], or
// the sample's error to errs[s].
func (p *FoldedCascode) evaluate(x []float64, xis [][]float64, perfs [][]float64, errs []error) {
	if p.failDesign(x, errs) {
		return
	}
	vdd := p.tech.VDD

	it := clampMin(x[0], 1e-6)
	ic := clampMin(x[1], 1e-6)
	is := it/2 + ic // NMOS sink nominal current
	k := mirrorRatio

	// Perturbed devices for all 15 slots. Cards and devices stay in this
	// frame; each card starts as its deck card and each sample rewrites its
	// perturbed fields, unless every sample is nominal.
	geom := fcGeometry(x)
	var cards [fcNumDevices]mos.Params
	var pelgrom [fcNumDevices]variation.Mismatch
	var devs [fcNumDevices]mos.Device
	mms := perturbed(pelgrom[:], xis)
	startBank(p.space, geom[:], nil, cards[:], mms)
	for i, g := range geom {
		devs[i] = mos.Device{Params: &cards[i], W: g[0], L: g[1], M: 1}
	}
	tail := &devs[fcTail]
	inL, inR := &devs[fcInL], &devs[fcInR]
	nskL, nskR := &devs[fcNSinkL], &devs[fcNSinkR]
	ncsL, ncsR := &devs[fcNCasL], &devs[fcNCasR]
	pcsL, pcsR := &devs[fcPCasL], &devs[fcPCasR]
	psrL, psrR := &devs[fcPSrcL], &devs[fcPSrcR]
	biasP, biasN := &devs[fcBiasP], &devs[fcBiasN]
	biasNC, biasPC := &devs[fcBiasNC], &devs[fcBiasPC]

	// Nominal devices for the bias-chain set points (xi-independent), on
	// the shared deck cards.
	nskNom, psrNom := p.deckDevice(geom[:], fcNSinkL), p.deckDevice(geom[:], fcPSrcL)
	vdsat3Nom := nskNom.VDsatForID(is)
	vdsat9Nom := psrNom.VDsatForID(ic)

	n := len(p.specs)
	backing := make([]float64, len(xis)*n)
	var inter variation.Inter
	for s, xi := range xis {
		if err := p.space.CheckVector(xi); err != nil {
			errs[s] = err
			continue
		}
		if mms != nil {
			p.space.WriteCards(cards[:], mms, &inter, xi)
		}

		// --- Bias chain and currents ---
		// PMOS gate line: diode B1 at IC/k sets Vsg for sources and tail.
		vsdSrcEst := psrL.VDsatForID(ic) + p.msBias
		i9L := mirror(biasP, psrL, ic/k, vsdSrcEst)
		i9R := mirror(biasP, psrR, ic/k, vsdSrcEst)
		itAct := mirror(biasP, tail, ic/k, tail.VDsatForID(it)+p.msBias)
		i9L = clampMin(i9L, 1e-7)
		i9R = clampMin(i9R, 1e-7)
		itAct = clampMin(itAct, 1e-7)

		// NMOS sink gate line: diode B2 at IS/k.
		vfoldEst := nskL.VDsatForID(is) + p.msBias
		i3L := clampMin(mirror(biasN, nskL, is/k, vfoldEst), 1e-7)
		i3R := clampMin(mirror(biasN, nskR, is/k, vfoldEst), 1e-7)

		// CMFB: the sinks must absorb the input-pair and source currents.
		// The loop shifts the common sink-gate line by dV; the per-side residual
		// becomes a differential output offset.
		i3NeedL := itAct/2 + i9L
		i3NeedR := itAct/2 + i9R
		gm3 := nskL.GmAt((i3L + i3R) / 2)
		dVcmfb := 0.0
		if gm3 > 0 {
			dVcmfb = ((i3NeedL + i3NeedR) - (i3L + i3R)) / 2 / gm3
		}
		// Residual differential current after the common correction.
		resL := i3NeedL - (i3L + gm3*dVcmfb)
		resR := i3NeedR - (i3R + gm3*dVcmfb)

		// Branch (cascode) currents per side.
		icL := clampMin(i9L, 1e-7)
		icR := clampMin(i9R, 1e-7)

		// --- Small-signal per side, then averaged ---
		type side struct {
			gm1, rout float64
			vsgIn     float64
			vov1      float64
		}
		mkSide := func(in, nsk, ncs, pcs, psr *mos.Device, idIn, idSink, idCas float64) side {
			gm1 := gmDegenerated(in, in.GmAt(idIn))
			ro1 := in.RoAt(idIn)
			ro3 := nsk.RoAt(idSink)
			ro5 := ncs.RoAt(idCas)
			ro7 := pcs.RoAt(idCas)
			ro9 := psr.RoAt(idCas)
			gm5 := ncs.GmAt(idCas)
			gm7 := pcs.GmAt(idCas)
			rDown := gm5 * ro5 * par(ro3, ro1)
			rUp := gm7 * ro7 * ro9
			return side{
				gm1:   gm1,
				rout:  par(rDown, rUp),
				vsgIn: in.VgsForID(idIn, 0),
				vov1:  in.VDsatForID(idIn),
			}
		}
		idInL, idInR := itAct/2, itAct/2
		sL := mkSide(inL, nskL, ncsL, pcsL, psrL, idInL, i3NeedL, icL)
		sR := mkSide(inR, nskR, ncsR, pcsR, psrR, idInR, i3NeedR, icR)
		gm1 := (sL.gm1 + sR.gm1) / 2
		rout := (sL.rout + sR.rout) / 2
		a0 := gm1 * rout
		a0dB := 20 * math.Log10(clampMin(a0, 1e-12))

		// The differential residual current becomes input-referred offset; the
		// measurement testbench servos the input so the output DC stays centred
		// (as in an HSPICE MC deck). Example 1 has no offset spec, so the
		// residual only matters through the CMFB range margin below.
		_ = resL
		_ = resR

		// --- Poles and capacitances ---
		var capsIn, capsNsk, capsNcs, capsPcs, capsPsr mos.OP
		satCaps(&capsIn, inL, idInL)
		satCaps(&capsNsk, nskL, i3NeedL)
		satCaps(&capsNcs, ncsL, icL)
		satCaps(&capsPcs, pcsL, icL)
		satCaps(&capsPsr, psrL, icL)
		cFold := capsNcs.Cgs + capsNcs.Csb + capsIn.Cdb + capsIn.Cgd + capsNsk.Cdb + capsNsk.Cgd
		cTop := capsPcs.Cgs + capsPcs.Csb + capsPsr.Cdb + capsPsr.Cgd
		cOut := p.CL + capsNcs.Cdb + capsNcs.Cgd + capsPcs.Cdb + capsPcs.Cgd
		gbw := gm1 / (2 * math.Pi * cOut)
		gm5 := ncsL.GmAt(icL)
		gm7 := pcsL.GmAt(icL)
		p2 := gm5 / (2 * math.Pi * clampMin(cFold, 1e-18))
		p3 := gm7 / (2 * math.Pi * clampMin(cTop, 1e-18))
		pm := 90 - atanDeg(gbw/p2) - atanDeg(gbw/p3)

		// --- Node voltages and saturation margins ---
		// Cascode gate biases track the nominal set points plus the bias
		// devices' own variations.
		vbnc := vdsat3Nom + p.msBias + biasNC.VgsForID(ic/k, 0)
		vbpc := vdd - vdsat9Nom - p.msBias - biasPC.VgsForID(ic/k, 0)

		// Each side's device overdrives set both its saturation margins and
		// the swing; the tail's is shared by the two sides.
		type vdsats struct{ nsk, ncs, pcs, psr float64 }
		vdsTail := tail.VDsatForID(itAct)
		margins := make([]float64, 0, 17)
		checkSide := func(s side, nsk, ncs, pcs, psr *mos.Device, i3eff, icas float64) vdsats {
			v := vdsats{nsk.VDsatForID(i3eff), ncs.VDsatForID(icas), pcs.VDsatForID(icas), psr.VDsatForID(icas)}
			vfold := vbnc - ncs.VgsForID(icas, 0)
			vx := vbpc + pcs.VgsForID(icas, 0)
			vsPair := p.VcmIn + s.vsgIn
			vout := vdd / 2
			margins = append(margins,
				vdd-vsPair-vdsTail,     // tail saturation
				vsPair-vfold-s.vov1,    // input device
				vfold-v.nsk-dVcmfb*0.5, // sink (CMFB eats margin)
				vout-vfold-v.ncs,       // NMOS cascode
				vx-vout-v.pcs,          // PMOS cascode
				vdd-vx-v.psr,           // PMOS source
				vfold-0.02,             // fold node above ground
				vdd-0.02-vx,            // top node below supply
			)
			return v
		}
		vL := checkSide(sL, nskL, ncsL, pcsL, psrL, i3NeedL, icL)
		vR := checkSide(sR, nskR, ncsR, pcsR, psrR, i3NeedR, icR)
		margins = append(margins, p.cmfbRange-math.Abs(dVcmfb))
		satMargin := minOf(margins...)

		// --- Swing ---
		vdsat3w := math.Max(vL.nsk, vR.nsk)
		vdsat5w := math.Max(vL.ncs, vR.ncs)
		vdsat7w := math.Max(vL.pcs, vR.pcs)
		vdsat9w := math.Max(vL.psr, vR.psr)
		vmax := vdd - vdsat9w - vdsat7w - p.msSwing
		vmin := vdsat3w + vdsat5w + p.msSwing
		os := 2 * (vmax - vmin)

		// --- Power ---
		biasCurrent := (3*ic + is) / k
		power := vdd * (itAct + i9L + i9R + biasCurrent)

		perfs[s] = append(backing[s*n:s*n:(s+1)*n], a0dB, gbw, pm, os, power, satMargin)
	}
}

var _ problem.BatchEvaluator = (*FoldedCascode)(nil)
