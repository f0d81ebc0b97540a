package mos

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// testParams returns a plausible 0.35µm-like NMOS card.
func testParams() *Params {
	return &Params{
		Name: "nch", VTH0: 0.55, U0: 0.040, TOX: 7.6e-9,
		Lambda0: 0.06, Gamma: 0.58, Phi: 0.8,
		LD: 30e-9, WD: 20e-9,
		CJ: 9e-4, CJSW: 2.8e-10, CGSO: 2.1e-10, CGDO: 2.1e-10,
		RDiff: 300, LDiff: 0.8e-6,
	}
}

func testDevice() *Device {
	return &Device{Params: testParams(), W: 20e-6, L: 1e-6, M: 1}
}

func TestRegions(t *testing.T) {
	d := testDevice()
	if op := d.Evaluate(0.3, 1.0, 0); op.Region != Cutoff || op.ID != 0 {
		t.Errorf("cutoff: %+v", op)
	}
	if op := d.Evaluate(1.0, 0.1, 0); op.Region != Triode {
		t.Errorf("triode: region=%v", op.Region)
	}
	if op := d.Evaluate(1.0, 1.5, 0); op.Region != Saturation {
		t.Errorf("sat: region=%v", op.Region)
	}
}

func TestRegionString(t *testing.T) {
	if Cutoff.String() != "cutoff" || Triode.String() != "triode" || Saturation.String() != "saturation" {
		t.Error("region strings wrong")
	}
	if Region(9).String() == "" {
		t.Error("unknown region should still render")
	}
}

func TestSquareLawCurrent(t *testing.T) {
	d := testDevice()
	op := d.Evaluate(1.05, 1.5, 0) // Vov = 0.5
	beta := d.Beta()
	want := 0.5 * beta * 0.25 * (1 + d.Lambda()*1.5)
	if math.Abs(op.ID-want)/want > 1e-12 {
		t.Errorf("ID = %v, want %v", op.ID, want)
	}
	if math.Abs(op.Vov-0.5) > 1e-12 {
		t.Errorf("Vov = %v", op.Vov)
	}
}

func TestGmNumericalDerivative(t *testing.T) {
	d := testDevice()
	const h = 1e-7
	for _, vds := range []float64{0.2, 1.5} {
		op := d.Evaluate(1.0, vds, 0)
		idPlus := d.Evaluate(1.0+h, vds, 0).ID
		idMinus := d.Evaluate(1.0-h, vds, 0).ID
		num := (idPlus - idMinus) / (2 * h)
		if math.Abs(op.Gm-num) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("vds=%v: Gm=%v, numerical=%v", vds, op.Gm, num)
		}
	}
}

func TestGdsNumericalDerivative(t *testing.T) {
	d := testDevice()
	const h = 1e-7
	for _, vds := range []float64{0.2, 1.5} {
		op := d.Evaluate(1.0, vds, 0)
		idPlus := d.Evaluate(1.0, vds+h, 0).ID
		idMinus := d.Evaluate(1.0, vds-h, 0).ID
		num := (idPlus - idMinus) / (2 * h)
		if math.Abs(op.Gds-num) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("vds=%v: Gds=%v, numerical=%v", vds, op.Gds, num)
		}
	}
}

func TestBodyEffectRaisesVth(t *testing.T) {
	d := testDevice()
	op0 := d.Evaluate(1.0, 1.0, 0)
	opB := d.Evaluate(1.0, 1.0, -1.0) // reverse body bias
	if opB.VTH <= op0.VTH {
		t.Errorf("VTH with body bias %v should exceed %v", opB.VTH, op0.VTH)
	}
	if opB.ID >= op0.ID {
		t.Error("reverse body bias should reduce current")
	}
}

// Property: current is continuous at the triode/saturation boundary.
func TestContinuityAtVdsat(t *testing.T) {
	f := func(vovRaw, wRaw uint16) bool {
		vov := 0.05 + float64(vovRaw%100)/100.0 // 0.05..1.05
		w := (1 + float64(wRaw%500)) * 1e-6
		d := &Device{Params: testParams(), W: w, L: 0.5e-6, M: 1}
		vgs := d.Params.VTH0 + vov
		lo := d.Evaluate(vgs, vov-1e-9, 0)
		hi := d.Evaluate(vgs, vov+1e-9, 0)
		if lo.ID <= 0 {
			return false
		}
		return math.Abs(lo.ID-hi.ID)/lo.ID < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ID increases monotonically with VGS in saturation.
func TestMonotonicInVgs(t *testing.T) {
	d := testDevice()
	prev := -1.0
	for vgs := 0.6; vgs < 2.0; vgs += 0.05 {
		id := d.Evaluate(vgs, 2.0, 0).ID
		if id <= prev {
			t.Fatalf("ID not monotonic at vgs=%v", vgs)
		}
		prev = id
	}
}

func TestBiasHelpers(t *testing.T) {
	d := testDevice()
	id := 100e-6
	vgs := d.VgsForID(id, 0)
	op := d.Evaluate(vgs, 2.0, 0)
	// CLM makes the actual current slightly larger; ratio must be close.
	if r := op.ID / id; r < 1.0 || r > 1.25 {
		t.Errorf("VgsForID round trip ratio = %v", r)
	}
	if vov := d.VovForID(id); math.Abs(vov-(vgs-d.Params.VTH0)) > 1e-12 {
		t.Errorf("VovForID = %v, want %v", vov, vgs-d.Params.VTH0)
	}
	vov := d.VovForID(id)
	lim := 2 * SubSlope * VThermal
	gmWant := 2 * id / math.Sqrt(vov*vov+lim*lim)
	if gm := d.GmAt(id); math.Abs(gm-gmWant)/gmWant > 1e-12 {
		t.Errorf("GmAt = %v, want %v", gm, gmWant)
	}
	// The transconductance efficiency never exceeds the weak-inversion cap.
	for _, i := range []float64{1e-9, 1e-7, 1e-5, 1e-3} {
		if eff := d.GmAt(i) / i; eff > 1/(SubSlope*VThermal)+1e-9 {
			t.Errorf("gm/Id = %v exceeds weak-inversion limit at id=%v", eff, i)
		}
	}
	// VDsat never drops below the weak-inversion floor.
	if v := d.VDsatForID(1e-9); v < VDsatFloor {
		t.Errorf("VDsatForID floor violated: %v", v)
	}
	ro := d.RoAt(id)
	if math.Abs(ro-1/(d.Lambda()*id))/ro > 1e-12 {
		t.Errorf("RoAt = %v", ro)
	}
	if !math.IsInf(d.RoAt(0), 1) {
		t.Error("RoAt(0) should be +Inf")
	}
}

func TestApplyPerturb(t *testing.T) {
	p := testParams()
	d := Nominal()
	d.DVth = 0.05
	d.U0Scale = 0.9
	d.TOXScale = 1.1
	var q Params
	p.ApplyTo(&q, &d)
	if math.Abs(q.VTH0-0.60) > 1e-12 {
		t.Errorf("VTH0 = %v", q.VTH0)
	}
	if math.Abs(q.U0-0.036) > 1e-12 {
		t.Errorf("U0 = %v", q.U0)
	}
	if math.Abs(q.TOX-8.36e-9) > 1e-20 {
		t.Errorf("TOX = %v", q.TOX)
	}
	// KP should fall with thicker oxide and lower mobility.
	if q.KP() >= p.KP() {
		t.Error("KP should decrease")
	}
	// Nominal perturbation is the identity.
	var id Params
	nom := Nominal()
	p.ApplyTo(&id, &nom)
	if id.VTH0 != p.VTH0 || id.U0 != p.U0 || id.TOX != p.TOX {
		t.Error("Nominal() should not change the card")
	}
}

func TestApplyGuardsTOX(t *testing.T) {
	p := testParams()
	d := Nominal()
	d.TOXScale = 0.01
	var q Params
	p.ApplyTo(&q, &d)
	if q.TOX < 0.2*p.TOX {
		t.Errorf("TOX guard failed: %v", q.TOX)
	}
	// In place: the guard still bounds against the unperturbed card.
	r := *p
	r.ApplyTo(&r, &d)
	if r != q {
		t.Errorf("in-place ApplyTo = %+v, want %+v", r, q)
	}
}

func TestEffectiveGeometry(t *testing.T) {
	d := testDevice()
	if w := d.Weff(); math.Abs(w-(20e-6-40e-9)) > 1e-15 {
		t.Errorf("Weff = %v", w)
	}
	if l := d.Leff(); math.Abs(l-(1e-6-60e-9)) > 1e-15 {
		t.Errorf("Leff = %v", l)
	}
	if a := d.AreaUm2(); math.Abs(a-20) > 1e-9 {
		t.Errorf("AreaUm2 = %v", a)
	}
	tiny := &Device{Params: testParams(), W: 1e-9, L: 1e-9, M: 1}
	if tiny.Weff() <= 0 || tiny.Leff() <= 0 {
		t.Error("effective geometry must stay positive")
	}
}

func TestCapacitancesPositiveAndRegionDependent(t *testing.T) {
	d := testDevice()
	sat := d.Evaluate(1.2, 2.0, 0)
	tri := d.Evaluate(1.2, 0.05, 0)
	if sat.Cgs <= 0 || sat.Cgd <= 0 || sat.Cdb <= 0 {
		t.Errorf("caps must be positive: %+v", sat)
	}
	if tri.Cgd <= sat.Cgd {
		t.Error("triode Cgd should exceed saturation Cgd")
	}
}

func TestMultiplier(t *testing.T) {
	d1 := testDevice()
	d4 := testDevice()
	d4.M = 4
	op1 := d1.Evaluate(1.0, 1.5, 0)
	op4 := d4.Evaluate(1.0, 1.5, 0)
	if math.Abs(op4.ID/op1.ID-4) > 1e-9 {
		t.Errorf("M=4 current ratio = %v", op4.ID/op1.ID)
	}
}

// sameFloat reports bit identity, any NaN matching any NaN.
func sameFloat(a, b float64) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// EvaluateDC writes exactly Evaluate's DC fields, bit for bit, into storage
// holding a stale operating point, and leaves its capacitances alone;
// EvaluateTo writes all of Evaluate. Random terminal voltages cover cutoff,
// triode and saturation (and reverse vds, which the engine folds away but
// the model must still evaluate deterministically), on NMOS and PMOS cards
// and on a card without body effect.
func TestEvaluateDCMatchesEvaluate(t *testing.T) {
	nch := testParams()
	pch := testParams()
	pch.Name, pch.PMOS, pch.VTH0, pch.U0, pch.Gamma = "pch", true, 0.65, 0.015, 0.45
	flat := testParams()
	flat.Gamma = 0
	rng := rand.New(rand.NewSource(11))
	stale := OP{Region: Region(7), ID: math.NaN(), VTH: 1, Vov: 2, VDsat: 3, Gm: 4, Gds: 5, Gmb: 6,
		Cgs: 7, Cgd: 8, Cdb: 9, Csb: 10}
	regions := map[Region]int{}
	for _, card := range []*Params{nch, pch, flat} {
		d := &Device{Params: card, W: 1e-6 + rng.Float64()*50e-6, L: 0.35e-6 + rng.Float64()*2e-6, M: 1}
		for i := 0; i < 20000; i++ {
			vgs, vds, vbs := 3*rng.Float64()-0.5, 3.5*rng.Float64()-0.2, -2*rng.Float64()+0.1
			want := d.Evaluate(vgs, vds, vbs)
			regions[want.Region]++
			got := stale
			d.EvaluateDC(&got, vgs, vds, vbs)
			dc := [][2]float64{{got.ID, want.ID}, {got.VTH, want.VTH}, {got.Vov, want.Vov},
				{got.VDsat, want.VDsat}, {got.Gm, want.Gm}, {got.Gds, want.Gds}, {got.Gmb, want.Gmb}}
			for f, p := range dc {
				if got.Region != want.Region || !sameFloat(p[0], p[1]) {
					t.Fatalf("%s (%v, %v, %v): DC field %d = %v (%v), Evaluate %v (%v)",
						card.Name, vgs, vds, vbs, f, p[0], got.Region, p[1], want.Region)
				}
			}
			if got.Cgs != stale.Cgs || got.Cgd != stale.Cgd || got.Cdb != stale.Cdb || got.Csb != stale.Csb {
				t.Fatalf("%s: EvaluateDC wrote the capacitances: %+v", card.Name, got)
			}
			full := stale
			d.EvaluateTo(&full, vgs, vds, vbs)
			if full != want {
				t.Fatalf("%s (%v, %v, %v): EvaluateTo %+v, Evaluate %+v", card.Name, vgs, vds, vbs, full, want)
			}
		}
	}
	for _, r := range []Region{Cutoff, Triode, Saturation} {
		if regions[r] == 0 {
			t.Errorf("no draw landed in %v: %v", r, regions)
		}
	}
}
