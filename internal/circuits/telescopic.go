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

// Telescopic is the paper's example 2: a fully differential two-stage
// amplifier in 90nm CMOS with 1.2V supply — a telescopic cascode first stage
// (NMOS input pair, NMOS/PMOS cascodes, PMOS loads, NMOS tail), a
// common-source PMOS second stage with NMOS sinks and Miller compensation,
// a CMFB pair and a four-diode bias chain: 19 transistors, giving
// 19×4 + 47 = 123 process-variation variables as in the paper.
//
// Design variables (12):
//
//	x[0]  tail current IT (A)            x[6]  PMOS load width W7 (m)
//	x[1]  stage-2 branch current I2 (A)  x[7]  stage-2 driver width W9 (m)
//	x[2]  input pair width W1 (m)        x[8]  stage-2 sink width W11 (m)
//	x[3]  input pair length L1 (m)       x[9]  stage-2 length Lout (m)
//	x[4]  NMOS cascode width W3 (m)      x[10] Miller capacitor Cc (F)
//	x[5]  PMOS cascode width W5 (m)      x[11] stage-1 load/cascode length L1s (m)
//
// Specifications (paper §3.3): A0 ≥ 60 dB, GBW ≥ 300 MHz, PM ≥ 60°,
// OS ≥ 1.8 V, power ≤ 10 mW, area ≤ 180 µm², offset ≤ 0.05 mV, and all
// transistors saturated. The offset is modelled as the systematic residue
// after the testbench input servo: stage-2 mismatch referred to the input
// through the first-stage gain (see DESIGN.md).
type Telescopic struct {
	tech  *pdk.Tech
	space *variation.Space
	specs []constraint.Spec
	lo    []float64
	hi    []float64

	CL        float64 // single-ended load capacitance (F)
	msSwing   float64 // swing headroom per rail (V)
	msBias    float64 // bias-chain saturation headroom (V)
	cmfbRange float64 // CMFB correction range (V)
}

// Variation slot indices for the 19 transistors.
const (
	tsTail = iota
	tsInL
	tsInR
	tsNCasL
	tsNCasR
	tsPCasL
	tsPCasR
	tsPLoadL
	tsPLoadR
	tsDrvL
	tsDrvR
	tsSnkL
	tsSnkR
	tsCmfbL
	tsCmfbR
	tsBiasN
	tsBiasPL
	tsBiasPC
	tsBiasNC
	tsNumDevices
)

// NewTelescopic builds the example-2 problem on the 90nm deck.
func NewTelescopic() *Telescopic {
	tech := pdk.N90()
	slots := []variation.Slot{
		{Name: "M0", PMOS: false},  // tail
		{Name: "M1", PMOS: false},  // input left
		{Name: "M2", PMOS: false},  // input right
		{Name: "M3", PMOS: false},  // NMOS cascode left
		{Name: "M4", PMOS: false},  // NMOS cascode right
		{Name: "M5", PMOS: true},   // PMOS cascode left
		{Name: "M6", PMOS: true},   // PMOS cascode right
		{Name: "M7", PMOS: true},   // PMOS load left
		{Name: "M8", PMOS: true},   // PMOS load right
		{Name: "M9", PMOS: true},   // stage-2 driver left
		{Name: "M10", PMOS: true},  // stage-2 driver right
		{Name: "M11", PMOS: false}, // stage-2 sink left
		{Name: "M12", PMOS: false}, // stage-2 sink right
		{Name: "M13", PMOS: false}, // CMFB left
		{Name: "M14", PMOS: false}, // CMFB right
		{Name: "B1", PMOS: false},  // tail/sink bias diode
		{Name: "B2", PMOS: true},   // pload bias diode
		{Name: "B3", PMOS: true},   // pcas gate bias
		{Name: "B4", PMOS: false},  // ncas gate bias
	}
	p := &Telescopic{
		tech:      tech,
		space:     variation.New(tech, slots),
		CL:        1e-12,
		msSwing:   0.015,
		msBias:    0.10,
		cmfbRange: 0.15,
		specs: []constraint.Spec{
			{Name: "A0", Sense: constraint.AtLeast, Bound: 60, Unit: "dB", Scale: 60},
			{Name: "GBW", Sense: constraint.AtLeast, Bound: 300e6, Unit: "Hz"},
			{Name: "PM", Sense: constraint.AtLeast, Bound: 60, Unit: "deg"},
			{Name: "OS", Sense: constraint.AtLeast, Bound: 1.8, Unit: "V"},
			{Name: "power", Sense: constraint.AtMost, Bound: 10e-3, Unit: "W"},
			{Name: "area", Sense: constraint.AtMost, Bound: 180, Unit: "um2"},
			{Name: "offset", Sense: constraint.AtMost, Bound: 0.05e-3, Unit: "V"},
			{Name: "satmargin", Sense: constraint.AtLeast, Bound: 0, Scale: 0.2, Unit: "V"},
		},
		lo: []float64{50e-6, 100e-6, 2e-6, 0.10e-6, 2e-6, 4e-6, 4e-6, 10e-6, 5e-6, 0.10e-6, 0.2e-12, 0.10e-6},
		hi: []float64{1.5e-3, 4e-3, 100e-6, 0.5e-6, 100e-6, 200e-6, 200e-6, 1000e-6, 500e-6, 0.5e-6, 3e-12, 0.6e-6},
	}
	return p
}

// Name implements problem.Problem.
func (p *Telescopic) Name() string { return "telescopic-two-stage-90nm" }

// Dim implements problem.Problem.
func (p *Telescopic) Dim() int { return 12 }

// Bounds implements problem.Problem.
func (p *Telescopic) Bounds() (lo, hi []float64) { return p.lo, p.hi }

// Specs implements problem.Problem.
func (p *Telescopic) Specs() []constraint.Spec { return p.specs }

// VarDim implements problem.Problem.
func (p *Telescopic) VarDim() int { return p.space.Dim() }

// Space exposes the variation space.
func (p *Telescopic) Space() *variation.Space { return p.space }

// ReferenceDesign returns a sizing that meets all specs at nominal with a
// Monte-Carlo yield near 89% — a good (but not optimal) design under the
// paper's "extremely severe" example-2 constraints, where residual failures
// spread over A0, PM, offset, swing and saturation margins.
func (p *Telescopic) ReferenceDesign() []float64 {
	return []float64{
		170e-6,   // IT
		420e-6,   // I2
		3.1e-6,   // W1
		0.25e-6,  // L1
		10e-6,    // W3
		38e-6,    // W5
		30e-6,    // W7
		132e-6,   // W9
		51e-6,    // W11
		0.15e-6,  // Lout
		0.40e-12, // Cc
		0.36e-6,  // L1s
	}
}

// Evaluate implements problem.Problem. Output aligned with Specs():
// [A0 dB, GBW Hz, PM deg, OS V, power W, area µm², offset V, satmargin V].
func (p *Telescopic) Evaluate(x, xi []float64) ([]float64, error) {
	if len(x) != p.Dim() {
		return nil, fmt.Errorf("telescopic: design has %d variables, want %d", len(x), p.Dim())
	}
	if err := p.space.CheckVector(xi); err != nil {
		return nil, err
	}
	vdd := p.tech.VDD

	it := clampMin(x[0], 1e-6)
	i2 := clampMin(x[1], 1e-6)
	ih := it / 2 // stage-1 half current
	w1, l1 := x[2], x[3]
	w3, w5, w7 := x[4], x[5], x[6]
	w9, w11 := x[7], x[8]
	lout := x[9]
	cc := clampMin(x[10], 1e-14)
	l1s := x[11]
	k := mirrorRatio
	ratio := it / i2
	if ratio < 0.02 {
		ratio = 0.02
	}
	if ratio > 50 {
		ratio = 50
	}
	w0 := w11 * ratio // tail shares the B1 gate line with the sinks
	wCmfb := clampMin(w11/4, 1e-6)

	// Perturbed devices for all 19 slots, W and L per slot. Cards and
	// devices stay in this frame; xi's inter-die part is computed once.
	geom := [tsNumDevices][2]float64{
		tsTail: {w0, lout}, tsInL: {w1, l1}, tsInR: {w1, l1},
		tsNCasL: {w3, l1s}, tsNCasR: {w3, l1s},
		tsPCasL: {w5, l1s}, tsPCasR: {w5, l1s},
		tsPLoadL: {w7, l1s}, tsPLoadR: {w7, l1s},
		tsDrvL: {w9, lout}, tsDrvR: {w9, lout},
		tsSnkL: {w11, lout}, tsSnkR: {w11, lout},
		tsCmfbL: {wCmfb, lout}, tsCmfbR: {wCmfb, lout},
		tsBiasN: {w11 / k, lout}, tsBiasPL: {w7 / k, l1s},
		tsBiasPC: {w5 / k, l1s}, tsBiasNC: {w3 / k, l1s},
	}
	var cards [tsNumDevices]mos.Params
	var devs [tsNumDevices]mos.Device
	inter := p.space.Inter(xi)
	for i, g := range geom {
		perturbCard(&cards[i], p.space, &inter, xi, i, g[0]*g[1]*1e12)
		devs[i] = mos.Device{Params: &cards[i], W: g[0], L: g[1], M: 1}
	}
	tail, inL := &devs[tsTail], &devs[tsInL]
	ncsL, ncsR := &devs[tsNCasL], &devs[tsNCasR]
	pcsL, pcsR := &devs[tsPCasL], &devs[tsPCasR]
	pldL, pldR := &devs[tsPLoadL], &devs[tsPLoadR]
	drvL, drvR := &devs[tsDrvL], &devs[tsDrvR]
	snkL, snkR := &devs[tsSnkL], &devs[tsSnkR]
	biasN, biasPL := &devs[tsBiasN], &devs[tsBiasPL]
	biasPC, biasNC := &devs[tsBiasPC], &devs[tsBiasNC]

	// Nominal devices for the bias set points, on the shared deck cards.
	nch, pch := p.tech.Model(false), p.tech.Model(true)
	tailNom := mos.Device{Params: nch, W: w0, L: lout, M: 1}
	inNom := mos.Device{Params: nch, W: w1, L: l1, M: 1}
	pldNom := mos.Device{Params: pch, W: w7, L: l1s, M: 1}
	drvNom := mos.Device{Params: pch, W: w9, L: lout, M: 1}

	// --- Currents ---
	// NMOS gate line from B1 at I2/k: sinks mirror I2, tail mirrors IT.
	i11L := clampMin(mirror(biasN, snkL, i2/k, vdd/2), 1e-7)
	i11R := clampMin(mirror(biasN, snkR, i2/k, vdd/2), 1e-7)
	itAct := clampMin(mirror(biasN, tail, i2/k, tail.VDsatForID(it)+p.msBias), 1e-7)
	// PMOS loads from B2 at IH/k.
	vsdLoadEst := pldL.VDsatForID(ih) + p.msBias
	i7L := clampMin(mirror(biasPL, pldL, ih/k, vsdLoadEst), 1e-7)
	i7R := clampMin(mirror(biasPL, pldR, ih/k, vsdLoadEst), 1e-7)
	// Stage-1 branch currents: the cascode branch conducts what the load
	// sources; the CMFB loop absorbs the difference against the input pair.
	ihL := clampMin((i7L+itAct/2)/2, 1e-7)
	ihR := clampMin((i7R+itAct/2)/2, 1e-7)
	cmfbNeed := math.Abs(i7L+i7R-itAct) / clampMin(pldL.GmAt(ih), 1e-9)

	// --- Stage-1 small signal ---
	gm1 := gmDegenerated(inL, inL.GmAt(ihL))
	ro1 := inL.RoAt(ihL)
	ro3 := ncsL.RoAt(ihL)
	ro5 := pcsL.RoAt(ihL)
	ro7 := pldL.RoAt(ihL)
	gm3 := ncsL.GmAt(ihL)
	gm5 := pcsL.GmAt(ihL)
	r1 := par(gm3*ro3*ro1, gm5*ro5*ro7)
	a1 := gm1 * r1

	// --- Stage-2 small signal ---
	i2L, i2R := i11L, i11R // CM loop equalizes driver and sink currents
	gm9 := drvL.GmAt(i2L)
	r2 := par(drvL.RoAt(i2L), snkL.RoAt(i2L))
	a2 := gm9 * r2
	a0 := a1 * a2
	a0dB := 20 * math.Log10(clampMin(a0, 1e-12))

	// --- Poles ---
	capsIn := satCaps(inL, ihL)
	capsNcs := satCaps(ncsL, ihL)
	capsPcs := satCaps(pcsL, ihL)
	capsDrv := satCaps(drvL, i2L)
	capsSnk := satCaps(snkL, i2L)
	c1 := capsDrv.Cgs + capsNcs.Cdb + capsNcs.Cgd + capsPcs.Cdb + capsPcs.Cgd
	c2 := p.CL + capsDrv.Cdb + capsSnk.Cdb + capsSnk.Cgd
	gbw := gm1 / (2 * math.Pi * cc)
	den := c1*c2 + cc*(c1+c2)
	p2 := gm9 * cc / (2 * math.Pi * clampMin(den, 1e-30))
	cA := capsNcs.Cgs + capsNcs.Csb + capsIn.Cdb + capsIn.Cgd
	p3 := gm3 / (2 * math.Pi * clampMin(cA, 1e-18))
	pm := 90 - atanDeg(gbw/p2) - atanDeg(gbw/p3)

	// --- Node voltages and saturation margins ---
	vov0Nom := tailNom.VDsatForID(it)
	vov1Nom := inNom.VDsatForID(ih)
	vov7Nom := pldNom.VDsatForID(ih)
	vtailNom := vov0Nom + p.msBias
	// Input common mode fixes Vtail through the input Vgs.
	vtail := vtailNom + (inNom.VgsForID(ih, 0) - inL.VgsForID(ihL, 0))
	// NMOS cascode gate bias from B4.
	vbnc := vtailNom + vov1Nom + p.msBias + biasNC.VgsForID(ih/k, 0)
	vA := vbnc - ncsL.VgsForID(ihL, 0)
	// PMOS cascode gate bias from B3.
	vbpc := vdd - vov7Nom - p.msBias - biasPC.VgsForID(ih/k, 0)
	vB := vbpc + pcsL.VgsForID(ihL, 0)
	// Stage-1 output sits one PMOS Vgs below the rail (stage-2 bias).
	vo1 := vdd - drvL.VgsForID(i2L, 0)
	vo1Nom := vdd - drvNom.VgsForID(i2, 0)

	margins := make([]float64, 0, 15)
	margins = append(margins,
		vtail-tail.VDsatForID(itAct),     // tail
		vA-vtail-inL.VDsatForID(ihL),     // input pair
		vo1-vA-ncsL.VDsatForID(ihL),      // NMOS cascode
		vB-vo1-pcsL.VDsatForID(ihL),      // PMOS cascode
		vdd-vB-pldL.VDsatForID(ihL),      // PMOS load
		vdd/2-drvL.VDsatForID(i2L),       // stage-2 driver (Vout=VDD/2)
		vdd/2-snkL.VDsatForID(i2L),       // stage-2 sink
		vA-0.02,                          // cascode node above ground
		vdd-0.02-vB,                      // load node below supply
		p.cmfbRange-cmfbNeed,             // CMFB range
		p.cmfbRange-math.Abs(vo1-vo1Nom), // stage-2 bias point drift
	)
	// Right side margins (mirror devices differ through mismatch).
	margins = append(margins,
		vo1-vA-ncsR.VDsatForID(ihR),
		vB-vo1-pcsR.VDsatForID(ihR),
		vdd/2-drvR.VDsatForID(i2R),
		vdd/2-snkR.VDsatForID(i2R),
	)
	satMargin := minOf(margins...)

	// --- Swing (second stage limits) ---
	vov9w := math.Max(drvL.VDsatForID(i2L), drvR.VDsatForID(i2R))
	vov11w := math.Max(snkL.VDsatForID(i2L), snkR.VDsatForID(i2R))
	os := 2 * (vdd - vov9w - vov11w - 2*p.msSwing)

	// --- Power ---
	icmfb := it / 4
	biasCurrent := (i2 + 3*ih) / k
	power := vdd * (itAct + i2L + i2R + icmfb + biasCurrent)

	// --- Area (gate area of all devices + Miller caps, µm²) ---
	um2 := func(w, l float64) float64 { return w * l * 1e12 }
	active := um2(w0, lout) + 2*um2(w1, l1) + 2*um2(w3, l1s) + 2*um2(w5, l1s) +
		2*um2(w7, l1s) + 2*um2(w9, lout) + 2*um2(w11, lout) + 2*um2(wCmfb, lout) +
		um2(w11/k, lout) + um2(w7/k, l1s) + um2(w5/k, l1s) + um2(w3/k, l1s)
	ccAreaUm2 := 2 * cc / 30e-15 // two stacked MOM Miller caps at 30 fF/µm²
	area := active*1.15 + ccAreaUm2

	// --- Offset (systematic residue; see DESIGN.md) ---
	dI11 := math.Abs(i11L - i11R)
	dVth9 := math.Abs(drvL.Params.VTH0 - drvR.Params.VTH0)
	offset := (dI11/clampMin(gm9, 1e-9) + dVth9) / clampMin(a1, 1)

	return []float64{a0dB, gbw, pm, os, power, area, offset, satMargin}, nil
}

var _ problem.Problem = (*Telescopic)(nil)
