package spice

import (
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/netlist"
)

// This file is the analytic accuracy harness that gates the transient
// pipeline: every integrator path — fixed and adaptive, backward Euler and
// trapezoidal — is pinned against closed-form RC and RLC responses before any scenario consumes it. The tolerances are pinned
// roughly 3× above the measured errors, so a regression that loses an
// order of accuracy trips them while benign refactors do not.

// rcChargeCircuit is a 1 µs RC driven by a unit step through R.
func rcChargeCircuit() (*netlist.Circuit, float64) {
	c := netlist.New("rc step")
	src := c.AddV("VIN", "in", "0", 0, 0)
	src.Pulse = &netlist.Pulse{V1: 0, V2: 1, Delay: 0, Rise: 1e-12, Width: 1}
	c.AddR("R1", "in", "out", 1e3)
	c.AddC("C1", "out", "0", 1e-9)
	return c, 1e-6 // τ
}

// maxErrVsAnalytic integrates with the given options and returns the worst
// absolute deviation of node from the analytic waveform fn(t), plus the
// accepted point count.
func maxErrVsAnalytic(t *testing.T, c *netlist.Circuit, node string,
	o TranOptions, fn func(t float64) float64) (float64, int) {
	t.Helper()
	e, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := e.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.TransientOpts(op, o)
	if err != nil {
		t.Fatal(err)
	}
	wave, err := res.VNode(c, node)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for k, tt := range res.Times {
		if d := math.Abs(wave[k] - fn(tt)); d > worst {
			worst = d
		}
	}
	return worst, len(res.Times)
}

// The adaptive trapezoidal integrator must track the closed-form RC charge
// v(t) = 1 − e^{−t/τ} to a tolerance tied to its LTE setting, using far
// fewer points than a fixed grid of comparable accuracy would need.
func TestAdaptiveTranRCChargeAnalytic(t *testing.T) {
	c, tau := rcChargeCircuit()
	o := TranOptions{TStop: 5 * tau, Adaptive: true, LTERel: 1e-4, LTEAbs: 1e-9}
	worst, n := maxErrVsAnalytic(t, c, "out", o,
		func(tt float64) float64 { return 1 - math.Exp(-tt/tau) })
	t.Logf("max |err| = %.3g over %d points", worst, n)
	if worst > 3e-4 {
		t.Errorf("adaptive trap error %.3g vs closed form (tol 3e-4)", worst)
	}
	if n > 400 {
		t.Errorf("adaptive grid used %d points — the controller is not coarsening the tail", n)
	}
}

// RC discharge from a DC-established initial condition: v(t) = V0·e^{−t/τ}.
func TestAdaptiveTranRCDischargeAnalytic(t *testing.T) {
	c := netlist.New("rc fall")
	src := c.AddV("VIN", "in", "0", 2, 0)
	src.Pulse = &netlist.Pulse{V1: 2, V2: 0, Delay: 0, Rise: 1e-12, Width: 1}
	c.AddR("R1", "in", "out", 10e3)
	c.AddC("C1", "out", "0", 1e-10)
	tau := 1e-6
	o := TranOptions{TStop: 5 * tau, Adaptive: true, LTERel: 1e-4, LTEAbs: 1e-9}
	worst, n := maxErrVsAnalytic(t, c, "out", o,
		func(tt float64) float64 { return 2 * math.Exp(-tt/tau) })
	t.Logf("max |err| = %.3g over %d points", worst, n)
	if worst > 6e-4 {
		t.Errorf("adaptive trap discharge error %.3g vs closed form (tol 6e-4)", worst)
	}
}

// The fixed-step trapezoidal mode must show second-order convergence:
// halving the step cuts the error by ≈4× (we require ≥3×), and the error
// sits orders below the backward-Euler mode at the same step. The RC is
// driven by a ramp spanning the window — a source discontinuity inside a
// fixed step costs O(h) for any one-step method (resolving those edges is
// what the adaptive mode's breakpoints are for), so the order measurement
// needs a smooth excitation: v(t) = kv·(t − τ + τ·e^{−t/τ}).
func TestFixedTrapConvergenceOrder(t *testing.T) {
	tau := 1e-6
	tStop := 5 * tau
	mk := func() *netlist.Circuit {
		c := netlist.New("rc ramp")
		src := c.AddV("VIN", "in", "0", 0, 0)
		src.Pulse = &netlist.Pulse{V1: 0, V2: 1, Delay: 0, Rise: tStop, Width: 1}
		c.AddR("R1", "in", "out", 1e3)
		c.AddC("C1", "out", "0", 1e-9)
		return c
	}
	kv := 1 / tStop
	fn := func(tt float64) float64 { return kv * (tt - tau + tau*math.Exp(-tt/tau)) }
	errAt := func(h float64, m TranMethod) float64 {
		e, _ := maxErrVsAnalytic(t, mk(), "out",
			TranOptions{TStop: tStop, Step: h, Method: m}, fn)
		return e
	}
	h := tau / 50
	eTrap, eTrapHalf := errAt(h, Trap), errAt(h/2, Trap)
	eBE := errAt(h, BackwardEuler)
	t.Logf("trap: err(h)=%.3g err(h/2)=%.3g  BE: err(h)=%.3g", eTrap, eTrapHalf, eBE)
	if ratio := eTrap / eTrapHalf; ratio < 3 {
		t.Errorf("trap convergence ratio %.2f, want ≥ 3 (second order)", ratio)
	}
	if eTrap > eBE/20 {
		t.Errorf("trap error %.3g not clearly below BE error %.3g at equal step", eTrap, eBE)
	}
}

// rlcCircuit builds a series-R driven parallel RLC tank where the inductor
// L = Cg/g² is synthesized from two VCCS elements and a capacitor (a
// gyrator — the netlist has no native inductor). The drive ramps 0→1 over
// rise seconds, so the band-pass response has the exact closed form
//
//	v(t) = (q(t) − q(t−rise))/rise,  q(u) = ∫₀ᵘ (1/(RC·ωd))·e^{−αs}·sin(ωd·s) ds
//
// with α = 1/(2RC) and ωd = √(1/LC − α²) — a damped ring-down once the
// ramp ends. A resolved ramp (rather than an instantaneous step) keeps the
// fixed-grid trapezoidal path at its nominal second order; the edge of an
// unresolved step inside one fixed step costs O(h) for any one-step method.
func rlcCircuit(rise float64) (c *netlist.Circuit, fn func(t float64) float64) {
	const (
		R  = 1e3
		C  = 1e-9
		g  = 1e-3
		f0 = 1e6
	)
	w0 := 2 * math.Pi * f0
	L := 1 / (w0 * w0 * C)
	Cg := L * g * g
	c = netlist.New("gyrator rlc ringdown")
	src := c.AddV("VIN", "in", "0", 0, 0)
	src.Pulse = &netlist.Pulse{V1: 0, V2: 1, Delay: 0, Rise: rise, Width: 1}
	c.AddR("R1", "in", "tank", R)
	c.AddC("C1", "tank", "0", C)
	// Gyrator inductor: GA integrates the tank voltage onto Cg, GB feeds
	// the integral back as the inductor current leaving the tank.
	c.AddC("CG", "li", "0", Cg)
	c.AddG("GA", "0", "li", "tank", "0", g)
	c.AddG("GB", "tank", "0", "li", "0", g)
	alpha := 1 / (2 * R * C)
	wd := math.Sqrt(w0*w0 - alpha*alpha)
	scale := 1 / (R * C * wd)
	q := func(u float64) float64 {
		if u <= 0 {
			return 0
		}
		return scale * (wd - math.Exp(-alpha*u)*(alpha*math.Sin(wd*u)+wd*math.Cos(wd*u))) /
			(alpha*alpha + wd*wd)
	}
	fn = func(tt float64) float64 { return (q(tt) - q(tt-rise)) / rise }
	return c, fn
}

// The RLC ring-down exercises the oscillatory regime where backward Euler's
// numerical damping is fatal and the trapezoidal rule shines: both the
// adaptive and the fixed trapezoidal paths must track the damped sinusoid.
func TestTranRLCRingdownAnalytic(t *testing.T) {
	const rise = 50e-9
	for _, tc := range []struct {
		name string
		o    TranOptions
		tol  float64
	}{
		{"adaptive", TranOptions{TStop: 5e-6, Adaptive: true, LTERel: 1e-4, LTEAbs: 1e-9}, 1.5e-3},
		{"fixed-trap", TranOptions{TStop: 5e-6, Step: 5e-9, Method: Trap}, 1.5e-3},
	} {
		c, fn := rlcCircuit(rise)
		worst, n := maxErrVsAnalytic(t, c, "tank", tc.o, fn)
		t.Logf("%s: max |err| = %.3g over %d points", tc.name, worst, n)
		if worst > tc.tol {
			t.Errorf("%s: error %.3g vs closed-form ring-down (tol %g)", tc.name, worst, tc.tol)
		}
	}
}

// Repeated adaptive transients on one engine must be bit-identical — the
// scratch-reuse determinism contract extended to the integrator state.
func TestAdaptiveTranRepeatDeterminism(t *testing.T) {
	c, tau := rcChargeCircuit()
	e, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := e.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	o := TranOptions{TStop: 5 * tau, Adaptive: true}
	r1, err := e.TransientOpts(op, o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.TransientOpts(op, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Times) != len(r2.Times) || r1.Rejected != r2.Rejected {
		t.Fatalf("repeat diverged: %d/%d points, %d/%d rejected",
			len(r1.Times), len(r2.Times), r1.Rejected, r2.Rejected)
	}
	for k := range r1.Times {
		if r1.Times[k] != r2.Times[k] {
			t.Fatalf("times differ at %d", k)
		}
		for i := range r1.V[k] {
			if r1.V[k][i] != r2.V[k][i] {
				t.Fatalf("voltages differ at point %d node %d", k, i)
			}
		}
	}
}

// The adaptive grid must land exactly on every pulse corner inside the
// window — the breakpoint contract that keeps fast edges resolved no
// matter how far the controller has grown the step.
func TestAdaptiveTranBreakpointLanding(t *testing.T) {
	c := netlist.New("pulse corners")
	src := c.AddV("VIN", "in", "0", 0, 0)
	src.Pulse = &netlist.Pulse{V1: 0, V2: 1, Delay: 100e-9, Rise: 10e-9, Width: 200e-9, Fall: 20e-9}
	c.AddR("R1", "in", "out", 1e3)
	c.AddC("C1", "out", "0", 20e-12)
	e, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := e.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.TransientOpts(op, TranOptions{TStop: 1e-6, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	// Corners within one ulp of the engine's own delay+rise+... float sums.
	for _, corner := range []float64{100e-9, 110e-9, 310e-9, 330e-9} {
		found := false
		for _, tt := range res.Times {
			if math.Abs(tt-corner) <= 1e-12*corner {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("grid missed breakpoint t=%g", corner)
		}
	}
	if res.Times[len(res.Times)-1] != 1e-6 {
		t.Errorf("grid did not end exactly at tStop: %g", res.Times[len(res.Times)-1])
	}
}
