package circuits

import (
	"fmt"
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
	tech  *pdk.Tech
	space *variation.Space
	specs []constraint.Spec
	lo    []float64
	hi    []float64

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
	p := &FoldedCascode{
		tech:      tech,
		space:     variation.New(tech, slots),
		CL:        6e-12,
		VcmIn:     tech.VDD / 2,
		msSwing:   0.05,
		msBias:    0.10,
		cmfbRange: 0.25,
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
	}
	return p
}

// Name implements problem.Problem.
func (p *FoldedCascode) Name() string { return "folded-cascode-0.35um" }

// Dim implements problem.Problem.
func (p *FoldedCascode) Dim() int { return 10 }

// Bounds implements problem.Problem.
func (p *FoldedCascode) Bounds() (lo, hi []float64) { return p.lo, p.hi }

// Specs implements problem.Problem.
func (p *FoldedCascode) Specs() []constraint.Spec { return p.specs }

// VarDim implements problem.Problem.
func (p *FoldedCascode) VarDim() int { return p.space.Dim() }

// Space exposes the variation space (used by the experiment harness).
func (p *FoldedCascode) Space() *variation.Space { return p.space }

// ReferenceDesign returns a sizing that meets all specs at the nominal
// process point with a Monte-Carlo yield near 100% (50k-sample reference
// estimate ≈ 99.96%), used by tests and as a documentation example. It was
// produced by a MOHECO run on this problem.
func (p *FoldedCascode) ReferenceDesign() []float64 {
	return []float64{
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
	}
}

// Evaluate implements problem.Problem. The returned vector is aligned with
// Specs(): [A0 dB, GBW Hz, PM deg, OS V, power W, satmargin V].
func (p *FoldedCascode) Evaluate(x, xi []float64) ([]float64, error) {
	if len(x) != p.Dim() {
		return nil, fmt.Errorf("folded-cascode: design has %d variables, want %d", len(x), p.Dim())
	}
	if err := p.space.CheckVector(xi); err != nil {
		return nil, err
	}
	vdd := p.tech.VDD

	it := clampMin(x[0], 1e-6)
	ic := clampMin(x[1], 1e-6)
	is := it/2 + ic // NMOS sink nominal current
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

	// Perturbed devices for all 15 slots, W and L per slot. Cards and
	// devices stay in this frame; xi's inter-die part is computed once.
	geom := [fcNumDevices][2]float64{
		fcTail: {w0, lcs}, fcInL: {w1, l1}, fcInR: {w1, l1},
		fcNSinkL: {w3, lcs}, fcNSinkR: {w3, lcs},
		fcNCasL: {w5, lcas}, fcNCasR: {w5, lcas},
		fcPCasL: {w7, lcas}, fcPCasR: {w7, lcas},
		fcPSrcL: {w9, lcs}, fcPSrcR: {w9, lcs},
		fcBiasP: {w9 / k, lcs}, fcBiasN: {w3 / k, lcs},
		fcBiasNC: {w5 / k, lcas}, fcBiasPC: {w7 / k, lcas},
	}
	var cards [fcNumDevices]mos.Params
	var devs [fcNumDevices]mos.Device
	inter := p.space.Inter(xi)
	for i, g := range geom {
		perturbCard(&cards[i], p.space, &inter, xi, i, g[0]*g[1]*1e12)
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
	nskNom := mos.Device{Params: p.tech.Model(false), W: w3, L: lcs, M: 1}
	psrNom := mos.Device{Params: p.tech.Model(true), W: w9, L: lcs, M: 1}

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
	capsIn := satCaps(inL, idInL)
	capsNsk := satCaps(nskL, i3NeedL)
	capsNcs := satCaps(ncsL, icL)
	capsPcs := satCaps(pcsL, icL)
	capsPsr := satCaps(psrL, icL)
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
	vdsat3Nom := nskNom.VDsatForID(is)
	vdsat9Nom := psrNom.VDsatForID(ic)
	vbnc := vdsat3Nom + p.msBias + biasNC.VgsForID(ic/k, 0)
	vbpc := vdd - vdsat9Nom - p.msBias - biasPC.VgsForID(ic/k, 0)

	margins := make([]float64, 0, 17)
	checkSide := func(s side, in, nsk, ncs, pcs, psr *mos.Device, i3eff, icas float64) {
		vfold := vbnc - ncs.VgsForID(icas, 0)
		vx := vbpc + pcs.VgsForID(icas, 0)
		vsPair := p.VcmIn + s.vsgIn
		vout := vdd / 2
		margins = append(margins,
			vdd-vsPair-tail.VDsatForID(itAct),      // tail saturation
			vsPair-vfold-s.vov1,                    // input device
			vfold-nsk.VDsatForID(i3eff)-dVcmfb*0.5, // sink (CMFB eats margin)
			vout-vfold-ncs.VDsatForID(icas),        // NMOS cascode
			vx-vout-pcs.VDsatForID(icas),           // PMOS cascode
			vdd-vx-psr.VDsatForID(icas),            // PMOS source
			vfold-0.02,                             // fold node above ground
			vdd-0.02-vx,                            // top node below supply
		)
	}
	checkSide(sL, inL, nskL, ncsL, pcsL, psrL, i3NeedL, icL)
	checkSide(sR, inR, nskR, ncsR, pcsR, psrR, i3NeedR, icR)
	margins = append(margins, p.cmfbRange-math.Abs(dVcmfb))
	satMargin := minOf(margins...)

	// --- Swing ---
	vdsat3w := math.Max(nskL.VDsatForID(i3NeedL), nskR.VDsatForID(i3NeedR))
	vdsat5w := math.Max(ncsL.VDsatForID(icL), ncsR.VDsatForID(icR))
	vdsat7w := math.Max(pcsL.VDsatForID(icL), pcsR.VDsatForID(icR))
	vdsat9w := math.Max(psrL.VDsatForID(icL), psrR.VDsatForID(icR))
	vmax := vdd - vdsat9w - vdsat7w - p.msSwing
	vmin := vdsat3w + vdsat5w + p.msSwing
	os := 2 * (vmax - vmin)

	// --- Power ---
	biasCurrent := (3*ic + is) / k
	power := vdd * (itAct + i9L + i9R + biasCurrent)

	return []float64{a0dB, gbw, pm, os, power, satMargin}, nil
}

var _ problem.Problem = (*FoldedCascode)(nil)
