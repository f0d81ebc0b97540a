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

// CommonSource is a small teaching problem used by the quickstart example: a
// common-source NMOS stage with a PMOS current-source load and a one-diode
// bias chain in the 0.35µm deck (3 transistors → 3×4 + 20 = 32 variation
// variables). It runs orders of magnitude faster than the paper benchmarks,
// which makes it convenient for smoke tests and API demos.
//
// Design variables (4):
//
//	x[0] bias current Ib (A)
//	x[1] driver width W1 (m)
//	x[2] driver length L1 (m)
//	x[3] load width W2 (m)
//
// Specifications: A0 ≥ 34 dB, GBW ≥ 20 MHz (CL = 1 pF), power ≤ 0.5 mW,
// and both transistors saturated.
type CommonSource struct {
	tech  *pdk.Tech
	space *variation.Space
	specs []constraint.Spec
	lo    []float64
	hi    []float64

	CL      float64
	msSat   float64
	loadLen float64
}

// Variation slots.
const (
	csDriver = iota
	csLoad
	csBias
	csNumDevices
)

// NewCommonSource builds the quickstart problem.
func NewCommonSource() *CommonSource {
	tech := pdk.C035()
	slots := []variation.Slot{
		{Name: "M1", PMOS: false}, // driver
		{Name: "M2", PMOS: true},  // load
		{Name: "B1", PMOS: true},  // bias diode
	}
	return &CommonSource{
		tech:    tech,
		space:   variation.New(tech, slots),
		CL:      1e-12,
		msSat:   0.05,
		loadLen: 1e-6,
		specs: []constraint.Spec{
			{Name: "A0", Sense: constraint.AtLeast, Bound: 34, Unit: "dB", Scale: 34},
			{Name: "GBW", Sense: constraint.AtLeast, Bound: 20e6, Unit: "Hz"},
			{Name: "power", Sense: constraint.AtMost, Bound: 0.5e-3, Unit: "W"},
			{Name: "satmargin", Sense: constraint.AtLeast, Bound: 0, Scale: 0.3, Unit: "V"},
		},
		lo: []float64{5e-6, 2e-6, 0.35e-6, 5e-6},
		hi: []float64{150e-6, 300e-6, 3e-6, 500e-6},
	}
}

// Name implements problem.Problem.
func (p *CommonSource) Name() string { return "common-source-0.35um" }

// Dim implements problem.Problem.
func (p *CommonSource) Dim() int { return 4 }

// Bounds implements problem.Problem.
func (p *CommonSource) Bounds() (lo, hi []float64) { return p.lo, p.hi }

// Specs implements problem.Problem.
func (p *CommonSource) Specs() []constraint.Spec { return p.specs }

// VarDim implements problem.Problem.
func (p *CommonSource) VarDim() int { return p.space.Dim() }

// Space exposes the variation space.
func (p *CommonSource) Space() *variation.Space { return p.space }

// ReferenceDesign returns a sizing that meets all specs at nominal.
func (p *CommonSource) ReferenceDesign() []float64 {
	return []float64{40e-6, 30e-6, 1.0e-6, 60e-6}
}

// Evaluate implements problem.Problem. Output aligned with Specs():
// [A0 dB, GBW Hz, power W, satmargin V].
func (p *CommonSource) Evaluate(x, xi []float64) ([]float64, error) {
	if len(x) != p.Dim() {
		return nil, fmt.Errorf("common-source: design has %d variables, want %d", len(x), p.Dim())
	}
	if err := p.space.CheckVector(xi); err != nil {
		return nil, err
	}
	vdd := p.tech.VDD
	ib := clampMin(x[0], 1e-7)
	k := mirrorRatio

	// Cards and devices stay in this frame; each card starts as its deck
	// card, which the nominal xi leaves as it is.
	geom := p.csGeometry(x)
	var cards [csNumDevices]mos.Params
	var devs [csNumDevices]mos.Device
	for i, g := range geom {
		cards[i] = *p.space.Model(i)
		devs[i] = mos.Device{Params: &cards[i], W: g[0], L: g[1], M: 1}
	}
	if xi != nil {
		var mms [csNumDevices]variation.Mismatch
		for i, g := range geom {
			mms[i] = p.space.Mismatch(i, g[0]*g[1]*1e12)
		}
		var inter variation.Inter
		p.space.WriteCards(cards[:], mms[:], &inter, xi)
	}
	drv, load := &devs[csDriver], &devs[csLoad]

	// The load mirrors the bias diode; the input bias servo sets the driver
	// gate so it conducts the load current with the output at VDD/2.
	id := p.loadCurrent(&devs, ib)
	gm := gmDegenerated(drv, drv.GmAt(id))
	rout := par(drv.RoAt(id), load.RoAt(id))
	a0 := gm * rout
	a0dB := 20 * math.Log10(clampMin(a0, 1e-12))

	var capsDrv, capsLoad mos.OP
	satCaps(&capsDrv, drv, id)
	satCaps(&capsLoad, load, id)
	cOut := p.CL + capsDrv.Cdb + capsDrv.Cgd + capsLoad.Cdb + capsLoad.Cgd
	gbw := gm / (2 * math.Pi * cOut)

	power := vdd * (id + ib/k)

	vov1 := drv.VDsatForID(id)
	vov2 := load.VDsatForID(id)
	satMargin := minOf(
		vdd/2-vov1-p.msSat, // driver at Vout = VDD/2
		vdd/2-vov2-p.msSat, // load
	)
	return []float64{a0dB, gbw, power, satMargin}, nil
}

// csGeometry returns the width and length of each transistor at design x,
// by variation slot.
func (p *CommonSource) csGeometry(x []float64) [csNumDevices][2]float64 {
	w1, l1, w2 := x[1], x[2], x[3]
	return [csNumDevices][2]float64{
		csDriver: {w1, l1}, csLoad: {w2, p.loadLen}, csBias: {w2 / mirrorRatio, p.loadLen},
	}
}

// csDevices returns the transistors of geometry g over cards, by variation
// slot.
func csDevices(g *[csNumDevices][2]float64, cards [csNumDevices]*mos.Params) [csNumDevices]mos.Device {
	var devs [csNumDevices]mos.Device
	for i := range devs {
		devs[i] = mos.Device{Params: cards[i], W: g[i][0], L: g[i][1], M: 1}
	}
	return devs
}

// loadCurrent returns the current the load of devs mirrors from the bias
// diode fed ib/mirrorRatio, with the output at VDD/2.
func (p *CommonSource) loadCurrent(devs *[csNumDevices]mos.Device, ib float64) float64 {
	return clampMin(mirror(&devs[csBias], &devs[csLoad], ib/mirrorRatio, p.tech.VDD/2), 1e-8)
}

// servo returns the input servo's bias: the gate voltage at which the
// driver of devs conducts the load current.
func (p *CommonSource) servo(devs *[csNumDevices]mos.Device, ib float64) float64 {
	return devs[csDriver].VgsForID(p.loadCurrent(devs, ib), 0)
}

var _ problem.Problem = (*CommonSource)(nil)
