package spice

import (
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
)

// RC charging: v(t) = V·(1 − exp(−t/RC)) against the analytic solution.
func TestTransientRCCharge(t *testing.T) {
	c := netlist.New("rc step")
	src := c.AddV("VIN", "in", "0", 0, 0)
	src.Pulse = &netlist.Pulse{V1: 0, V2: 1, Delay: 0, Rise: 1e-12, Width: 1}
	c.AddR("R1", "in", "out", 1e3)
	c.AddC("C1", "out", "0", 1e-9) // τ = 1 µs
	e, op := solveDC(t, c)
	tau := 1e-6
	res, err := e.TransientOpts(op, TranOptions{TStop: 5 * tau, Step: tau / 200, Method: BackwardEuler})
	if err != nil {
		t.Fatal(err)
	}
	wave, err := res.VNode(c, "out")
	if err != nil {
		t.Fatal(err)
	}
	for k, tt := range res.Times {
		want := 1 - math.Exp(-tt/tau)
		if math.Abs(wave[k]-want) > 0.01 {
			t.Fatalf("t=%g: v=%v, analytic %v", tt, wave[k], want)
		}
	}
}

// A discharging capacitor through a resistor: exponential decay from the
// initial condition established by the DC solution.
func TestTransientRCDischarge(t *testing.T) {
	c := netlist.New("rc fall")
	src := c.AddV("VIN", "in", "0", 2, 0)
	src.Pulse = &netlist.Pulse{V1: 2, V2: 0, Delay: 0, Rise: 1e-12, Width: 1}
	c.AddR("R1", "in", "out", 10e3)
	c.AddC("C1", "out", "0", 1e-10) // τ = 1 µs
	e, op := solveDC(t, c)
	v0, _ := op.VNode(c, "out")
	if math.Abs(v0-2) > 1e-6 {
		t.Fatalf("DC start = %v", v0)
	}
	tau := 1e-6
	res, err := e.TransientOpts(op, TranOptions{TStop: 3 * tau, Step: tau / 100, Method: BackwardEuler})
	if err != nil {
		t.Fatal(err)
	}
	wave, _ := res.VNode(c, "out")
	end := wave[len(wave)-1]
	want := 2 * math.Exp(-3)
	if math.Abs(end-want) > 0.03 {
		t.Errorf("after 3τ: %v, analytic %v", end, want)
	}
}

// Common-source amplifier step response: the output must slew toward the
// new operating point and settle; the small-signal gain predicts the final
// delta for a small input step.
func TestTransientCommonSourceStep(t *testing.T) {
	c := netlist.New("cs tran")
	p := nmosCard()
	const (
		vdd = 3.3
		rd  = 20e3
		w   = 50e-6
		l   = 1e-6
	)
	c.AddV("VDD", "vdd", "0", vdd, 0)
	c.AddR("RD", "vdd", "out", rd)
	c.AddC("CL", "out", "0", 2e-12)
	dev := deviceForTest(p, w, l)
	vgs := dev.VgsForID(100e-6, 0)
	src := c.AddV("VIN", "in", "0", vgs, 0)
	const step = 2e-3
	src.Pulse = &netlist.Pulse{V1: vgs, V2: vgs + step, Delay: 10e-9, Rise: 1e-10, Width: 1}
	c.AddM("M1", "out", "in", "0", "0", p, w, l, 1)

	e, op := solveDC(t, c)
	mop := mosNamed(t, e, op, "M1")
	gain := mop.Gm * (rd / (1 + rd*mop.Gds))
	res, err := e.TransientOpts(op, TranOptions{TStop: 400e-9, Step: 0.2e-9, Method: BackwardEuler})
	if err != nil {
		t.Fatal(err)
	}
	wave, _ := res.VNode(c, "out")
	v0, _ := op.VNode(c, "out")
	delta := wave[len(wave)-1] - v0
	want := -gain * step
	if math.Abs(delta-want) > 0.25*math.Abs(want) {
		t.Errorf("step response delta %v, small-signal predicts %v", delta, want)
	}
	// Settling within 1 mV of final.
	st, err := measure.NewStep(res.Times, wave, src.Pulse.Delay)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := st.SettlingTime(1e-3 / math.Abs(st.Swing()))
	if err != nil {
		t.Fatalf("did not settle: %v", err)
	}
	// One-pole estimate: τ ≈ Rout·Ctot ≈ 20k·2.3p ≈ 46ns → settle < 350ns.
	if tSettle := src.Pulse.Delay + ts; tSettle > 350e-9 {
		t.Errorf("settled at %v, expected < 350ns", tSettle)
	}
}

func TestTransientValidation(t *testing.T) {
	c := netlist.New("v")
	c.AddV("V1", "a", "0", 1, 0)
	c.AddR("R1", "a", "0", 1e3)
	e, op := solveDC(t, c)
	if _, err := e.TransientOpts(op, TranOptions{TStop: 0, Step: 1e-9, Method: BackwardEuler}); err == nil {
		t.Error("tStop=0 accepted")
	}
	if _, err := e.TransientOpts(op, TranOptions{TStop: 1e-9, Step: 0, Method: BackwardEuler}); err == nil {
		t.Error("h=0 accepted")
	}
	if _, err := e.TransientOpts(op, TranOptions{TStop: 1e-12, Step: 1e-9, Method: BackwardEuler}); err == nil {
		t.Error("tStop < h accepted")
	}
}

func TestPulseWaveform(t *testing.T) {
	p := &netlist.Pulse{V1: 0, V2: 1, Delay: 1e-9, Rise: 1e-9, Fall: 2e-9, Width: 3e-9, Period: 10e-9}
	cases := []struct{ t, want float64 }{
		{0, 0},
		{1e-9, 0},      // delay edge
		{1.5e-9, 0.5},  // mid rise
		{2e-9, 1},      // top
		{4.9e-9, 1},    // still on
		{6e-9, 0.5},    // mid fall
		{8e-9, 0},      // off
		{11.5e-9, 0.5}, // periodic repeat: mid rise of pulse 2
	}
	for _, c := range cases {
		if got := p.Value(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Pulse(%g) = %v, want %v", c.t, got, c.want)
		}
	}
	// Zero rise/fall times must not divide by zero.
	q := &netlist.Pulse{V1: 0, V2: 5, Width: 1e-9}
	if q.Value(0.5e-9) != 5 {
		t.Error("instant rise broken")
	}
}

// deviceForTest builds a mos.Device for bias computations in tests.
func deviceForTest(p *mos.Params, w, l float64) *mos.Device {
	return &mos.Device{Params: p, W: w, L: l, M: 1}
}
