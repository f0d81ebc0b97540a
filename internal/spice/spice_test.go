package spice

import (
	"math"
	"math/cmplx"
	"testing"

	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
)

func nmosCard() *mos.Params {
	return &mos.Params{
		Name: "nch", VTH0: 0.55, U0: 0.040, TOX: 7.6e-9,
		Lambda0: 0.06, Gamma: 0.58, Phi: 0.85,
		LD: 30e-9, WD: 20e-9,
		CJ: 9e-4, CJSW: 2.8e-10, CGSO: 2.1e-10, CGDO: 2.1e-10, LDiff: 0.8e-6,
	}
}

func pmosCard() *mos.Params {
	return &mos.Params{
		Name: "pch", PMOS: true, VTH0: 0.65, U0: 0.015, TOX: 7.6e-9,
		Lambda0: 0.08, Gamma: 0.45, Phi: 0.80,
		LD: 35e-9, WD: 25e-9,
		CJ: 1.1e-3, CJSW: 3.2e-10, CGSO: 2.3e-10, CGDO: 2.3e-10, LDiff: 0.8e-6,
	}
}

func solveDC(t *testing.T, c *netlist.Circuit) (*Engine, *OPResult) {
	t.Helper()
	e, err := New(c, Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	op, err := e.DCOperatingPoint()
	if err != nil {
		t.Fatalf("dc: %v", err)
	}
	return e, op
}

// mosNamed returns the operating point of the named transistor.
func mosNamed(t *testing.T, e *Engine, op *OPResult, name string) mos.OP {
	t.Helper()
	i, ok := e.MOSIndex(name)
	if !ok {
		t.Fatalf("no transistor %q", name)
	}
	return op.MOS[i]
}

func TestDCVoltageDivider(t *testing.T) {
	c := netlist.New("divider")
	c.AddV("V1", "in", "0", 2.0, 0)
	c.AddR("R1", "in", "out", 1e3)
	c.AddR("R2", "out", "0", 1e3)
	_, op := solveDC(t, c)
	v, err := op.VNode(c, "out")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1.0) > 1e-6 {
		t.Errorf("divider out = %v, want 1.0", v)
	}
	if _, err := op.VNode(c, "nope"); err == nil {
		t.Error("unknown node should error")
	}
}

func TestDCCurrentSourceAndBranchCurrent(t *testing.T) {
	c := netlist.New("isrc")
	c.AddV("V1", "vdd", "0", 5, 0)
	c.AddI("I1", "vdd", "out", 1e-3, 0) // 1mA from vdd into out
	c.AddR("R1", "out", "0", 2e3)
	_, op := solveDC(t, c)
	v, _ := op.VNode(c, "out")
	if math.Abs(v-2.0) > 1e-6 {
		t.Errorf("out = %v, want 2.0", v)
	}
	// V1 supplies the 1mA: branch current flows out of its + terminal,
	// i.e. the MNA branch current (into +) is -1mA.
	if math.Abs(op.BranchI[0]+1e-3) > 1e-9 {
		t.Errorf("branch current = %v, want -1e-3", op.BranchI[0])
	}
}

func TestDCVCVS(t *testing.T) {
	c := netlist.New("vcvs")
	c.AddV("V1", "in", "0", 0.5, 0)
	c.AddE("E1", "out", "0", "in", "0", 10)
	c.AddR("RL", "out", "0", 1e3)
	_, op := solveDC(t, c)
	v, _ := op.VNode(c, "out")
	if math.Abs(v-5.0) > 1e-6 {
		t.Errorf("vcvs out = %v, want 5", v)
	}
}

func TestDCVCCS(t *testing.T) {
	c := netlist.New("vccs")
	c.AddV("V1", "in", "0", 1.0, 0)
	c.AddG("G1", "out", "0", "in", "0", 1e-3) // 1mA out of "out" node
	c.AddR("RL", "out", "0", 1e3)
	_, op := solveDC(t, c)
	v, _ := op.VNode(c, "out")
	// Current 1mA flows NP->NN i.e. from out to ground through the source:
	// it pulls the node low: v = -1V across 1k.
	if math.Abs(v+1.0) > 1e-6 {
		t.Errorf("vccs out = %v, want -1", v)
	}
}

func TestDCNMOSDiode(t *testing.T) {
	// Diode-connected NMOS fed by a current source: Vgs should satisfy the
	// square law.
	c := netlist.New("diode")
	c.AddV("V1", "vdd", "0", 3.3, 0)
	c.AddI("I1", "vdd", "d", 100e-6, 0)
	p := nmosCard()
	c.AddM("M1", "d", "d", "0", "0", p, 20e-6, 1e-6, 1)
	e, op := solveDC(t, c)
	v, _ := op.VNode(c, "d")
	dev := &mos.Device{Params: p, W: 20e-6, L: 1e-6, M: 1}
	// Verify current at the solved voltage matches the source.
	got := dev.Evaluate(v, v, 0)
	if math.Abs(got.ID-100e-6)/100e-6 > 1e-3 {
		t.Errorf("diode current = %v at v=%v, want 100µA", got.ID, v)
	}
	if got.Region != mos.Saturation {
		t.Errorf("diode region = %v", got.Region)
	}
	mop := mosNamed(t, e, op, "M1")
	if math.Abs(mop.ID-100e-6)/100e-6 > 1e-3 {
		t.Errorf("stored OP current = %v", mop.ID)
	}
}

func TestDCPMOSDiode(t *testing.T) {
	c := netlist.New("pdiode")
	c.AddV("V1", "vdd", "0", 3.3, 0)
	c.AddI("I1", "d", "0", 50e-6, 0) // pull 50µA out of node d
	p := pmosCard()
	c.AddM("M1", "d", "d", "vdd", "vdd", p, 40e-6, 1e-6, 1)
	_, op := solveDC(t, c)
	v, _ := op.VNode(c, "d")
	if v >= 3.3 || v <= 0 {
		t.Fatalf("pmos diode node = %v", v)
	}
	vsg := 3.3 - v
	dev := &mos.Device{Params: p, W: 40e-6, L: 1e-6, M: 1}
	got := dev.Evaluate(vsg, vsg, 0)
	if math.Abs(got.ID-50e-6)/50e-6 > 1e-3 {
		t.Errorf("pmos diode current = %v, want 50µA", got.ID)
	}
}

// Common-source amplifier: gain and pole against analytic expectation.
func TestCommonSourceACGain(t *testing.T) {
	c := netlist.New("cs amp")
	p := nmosCard()
	const (
		vdd = 3.3
		rd  = 20e3
		w   = 50e-6
		l   = 1e-6
		cl  = 1e-12
	)
	c.AddV("VDD", "vdd", "0", vdd, 0)
	c.AddR("RD", "vdd", "out", rd)
	c.AddC("CL", "out", "0", cl)
	dev := &mos.Device{Params: p, W: w, L: l, M: 1}
	// Bias for ~100µA.
	vgs := dev.VgsForID(100e-6, 0)
	c.AddV("VIN", "in", "0", vgs, 1)
	c.AddM("M1", "out", "in", "0", "0", p, w, l, 1)

	e, op := solveDC(t, c)
	mop := mosNamed(t, e, op, "M1")
	if mop.Region != mos.Saturation {
		t.Fatalf("M1 region = %v (vout=%v)", mop.Region, op.V[c.Node("out")])
	}
	freqs := LogSpace(10, 1e9, 10)
	ac, err := e.AC(op, freqs)
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	h, err := ac.VNode(c, "out")
	if err != nil {
		t.Fatal(err)
	}
	gotGain := cmplx.Abs(h[0])
	ro := 1 / mop.Gds
	wantGain := mop.Gm * (rd * ro / (rd + ro))
	if math.Abs(gotGain-wantGain)/wantGain > 0.02 {
		t.Errorf("AC gain = %v, analytic %v", gotGain, wantGain)
	}
	// Pole: f3dB = 1/(2π·Rout·(CL+Cdb+Cgd·(1+1/gain))) approximately; just
	// check the response falls with frequency.
	if cmplx.Abs(h[len(h)-1]) >= gotGain/2 {
		t.Error("response should roll off at 1 GHz")
	}
}

func TestRCFilterAC(t *testing.T) {
	c := netlist.New("rc")
	c.AddV("VIN", "in", "0", 0, 1)
	c.AddR("R1", "in", "out", 1e3)
	c.AddC("C1", "out", "0", 1e-9) // f3dB = 159.15 kHz
	e, op := solveDC(t, c)
	f3 := 1 / (2 * math.Pi * 1e3 * 1e-9)
	ac, err := e.AC(op, []float64{f3 / 100, f3, f3 * 100})
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	h, _ := ac.VNode(c, "out")
	if m := cmplx.Abs(h[0]); math.Abs(m-1) > 0.01 {
		t.Errorf("passband mag = %v", m)
	}
	if m := cmplx.Abs(h[1]); math.Abs(m-1/math.Sqrt2) > 0.01 {
		t.Errorf("corner mag = %v, want 0.707", m)
	}
	if m := cmplx.Abs(h[2]); math.Abs(m-0.01) > 0.002 {
		t.Errorf("stopband mag = %v, want ~0.01", m)
	}
	// Phase at corner ≈ -45°.
	if ph := cmplx.Phase(h[1]) * 180 / math.Pi; math.Abs(ph+45) > 1 {
		t.Errorf("corner phase = %v, want -45", ph)
	}
}

func TestFiveTransistorOTA(t *testing.T) {
	// NMOS diff pair, PMOS mirror load, NMOS tail current source.
	c := netlist.New("5t ota")
	np, pp := nmosCard(), pmosCard()
	c.AddV("VDD", "vdd", "0", 3.3, 0)
	c.AddV("VIP", "vip", "0", 1.5, 1)
	c.AddV("VIN", "vin", "0", 1.5, 0)
	// Tail bias: diode-connected reference mirrored to the tail.
	c.AddI("IB", "vdd", "bn", 50e-6, 0)
	c.AddM("MB", "bn", "bn", "0", "0", np, 20e-6, 2e-6, 1)
	c.AddM("MT", "tail", "bn", "0", "0", np, 40e-6, 2e-6, 1)
	// Pair.
	c.AddM("M1", "x", "vip", "tail", "0", np, 60e-6, 1e-6, 1)
	c.AddM("M2", "out", "vin", "tail", "0", np, 60e-6, 1e-6, 1)
	// PMOS mirror.
	c.AddM("M3", "x", "x", "vdd", "vdd", pp, 60e-6, 1e-6, 1)
	c.AddM("M4", "out", "x", "vdd", "vdd", pp, 60e-6, 1e-6, 1)
	c.AddC("CL", "out", "0", 2e-12)

	e, op := solveDC(t, c)
	for _, name := range []string{"MT", "M1", "M2", "M3", "M4"} {
		if r := mosNamed(t, e, op, name).Region; r != mos.Saturation {
			t.Fatalf("%s region = %v", name, r)
		}
	}
	// Tail splits evenly at balance.
	i1, i2 := mosNamed(t, e, op, "M1").ID, mosNamed(t, e, op, "M2").ID
	if math.Abs(i1-i2)/i1 > 0.02 {
		t.Errorf("pair imbalance: %v vs %v", i1, i2)
	}
	ac, err := e.AC(op, LogSpace(10, 1e9, 8))
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	h, _ := ac.VNode(c, "out")
	dcGain := cmplx.Abs(h[0])
	m2 := mosNamed(t, e, op, "M2")
	m4 := mosNamed(t, e, op, "M4")
	want := m2.Gm / (m2.Gds + m4.Gds)
	if math.Abs(dcGain-want)/want > 0.15 {
		t.Errorf("OTA gain = %v, analytic ≈ %v", dcGain, want)
	}
	if dcGain < 20 {
		t.Errorf("OTA gain %v suspiciously low", dcGain)
	}
}

// Contradictory voltage sources have no operating point. Their branch rows
// leave the Jacobian structurally singular, so the engine rejects them when
// it is built, before any DC solve.
func TestDCNonConvergenceSurfaced(t *testing.T) {
	c := netlist.New("conflict")
	c.AddV("V1", "a", "0", 1, 0)
	c.AddV("V2", "a", "0", 2, 0) // contradictory
	if _, err := New(c, Options{MaxIter: 20}); err == nil {
		t.Error("contradictory sources accepted")
	}
}

func TestLogSpace(t *testing.T) {
	fs := LogSpace(10, 1000, 10)
	if len(fs) != 21 {
		t.Errorf("LogSpace count = %d, want 21", len(fs))
	}
	if math.Abs(fs[0]-10) > 1e-9 || math.Abs(fs[len(fs)-1]-1000)/1000 > 1e-6 {
		t.Errorf("endpoints: %v .. %v", fs[0], fs[len(fs)-1])
	}
	if LogSpace(-1, 10, 5) != nil || LogSpace(10, 5, 5) != nil {
		t.Error("invalid ranges should return nil")
	}
}
