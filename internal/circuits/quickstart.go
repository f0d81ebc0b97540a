package circuits

import (
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
	frame

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
	// The reference design meets all specs at nominal.
	return &CommonSource{
		frame: frame{
			name:  "common-source-0.35um",
			tag:   "common-source",
			tech:  tech,
			space: variation.New(tech, slots),
			specs: []constraint.Spec{
				{Name: "A0", Sense: constraint.AtLeast, Bound: 34, Unit: "dB", Scale: 34},
				{Name: "GBW", Sense: constraint.AtLeast, Bound: 20e6, Unit: "Hz"},
				{Name: "power", Sense: constraint.AtMost, Bound: 0.5e-3, Unit: "W"},
				{Name: "satmargin", Sense: constraint.AtLeast, Bound: 0, Scale: 0.3, Unit: "V"},
			},
			lo:  []float64{5e-6, 2e-6, 0.35e-6, 5e-6},
			hi:  []float64{150e-6, 300e-6, 3e-6, 500e-6},
			ref: []float64{40e-6, 30e-6, 1.0e-6, 60e-6},
		},
		CL:      1e-12,
		msSat:   0.05,
		loadLen: 1e-6,
	}
}

// Evaluate implements problem.Problem as a one-sample EvaluateBatch.
// Output aligned with Specs(): [A0 dB, GBW Hz, power W, satmargin V].
func (p *CommonSource) Evaluate(x, xi []float64) ([]float64, error) {
	var perf [1][]float64
	var err [1]error
	p.evaluate(x, [][]float64{xi}, perf[:], err[:])
	return perf[0], err[0]
}

// EvaluateBatch implements problem.BatchEvaluator. The slot geometry and
// the Pelgrom factors of each slot's gate area are made once per batch;
// each sample rewrites the perturbed cards in place, and the performance
// vectors share one backing array. Every sample gets Evaluate's bits.
func (p *CommonSource) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	perfs, errs := make([][]float64, len(xis)), make([]error, len(xis))
	p.evaluate(x, xis, perfs, errs)
	return perfs, errs
}

// evaluate writes the performances of x under each xis[s] to perfs[s], or
// the sample's error to errs[s].
func (p *CommonSource) evaluate(x []float64, xis [][]float64, perfs [][]float64, errs []error) {
	if p.failDesign(x, errs) {
		return
	}
	vdd := p.tech.VDD
	ib := clampMin(x[0], 1e-7)
	k := mirrorRatio

	// Cards and devices stay in this frame; each card starts as its deck
	// card and each sample rewrites its perturbed fields, unless every
	// sample is nominal.
	geom := p.csGeometry(x)
	var cards [csNumDevices]mos.Params
	var pelgrom [csNumDevices]variation.Mismatch
	var devs [csNumDevices]mos.Device
	mms := perturbed(pelgrom[:], xis)
	startBank(p.space, geom[:], nil, cards[:], mms)
	for i, g := range geom {
		devs[i] = mos.Device{Params: &cards[i], W: g[0], L: g[1], M: 1}
	}
	drv, load := &devs[csDriver], &devs[csLoad]

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

		// The load mirrors the bias diode; the input bias servo sets the
		// driver gate so it conducts the load current with the output at
		// VDD/2.
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
		perfs[s] = append(backing[s*n:s*n:(s+1)*n], a0dB, gbw, power, satMargin)
	}
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
func csDevices(g *[csNumDevices][2]float64, cards []*mos.Params) [csNumDevices]mos.Device {
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

var _ problem.BatchEvaluator = (*CommonSource)(nil)
