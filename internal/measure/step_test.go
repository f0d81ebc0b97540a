package measure

import (
	"errors"
	"math"
	"testing"
)

// firstOrderStep samples v(t) = v0 + swing·(1 − e^{−(t−t0)/τ}) for t ≥ t0
// on a mildly non-uniform grid, mimicking the adaptive integrator's output.
func firstOrderStep(t0, tau, v0, swing, tStop float64, n int) (times, wave []float64) {
	for i := 0; i <= n; i++ {
		// Quadratic spacing: dense early, coarse late — like an LTE grid.
		f := float64(i) / float64(n)
		tt := tStop * f * (0.3 + 0.7*f)
		times = append(times, tt)
		v := v0
		if tt > t0 {
			v += swing * (1 - math.Exp(-(tt-t0)/tau))
		}
		wave = append(wave, v)
	}
	return times, wave
}

// The Step measures must reproduce the closed-form figures of a first-order
// response: delay τ·ln2, rise time τ·ln9, 1% settling τ·ln100, 0.1%
// settling τ·ln1000, zero overshoot.
func TestStepFirstOrderAnalytic(t *testing.T) {
	const (
		t0    = 1e-7
		tau   = 1e-6
		v0    = 0.4
		swing = -0.12 // falling step: sign handling must be exact
		tStop = 12e-6
	)
	times, wave := firstOrderStep(t0, tau, v0, swing, tStop, 4000)
	s, err := NewStep(times, wave, t0)
	if err != nil {
		t.Fatal(err)
	}
	approx := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol*math.Abs(want) {
			t.Errorf("%s = %.6g, want %.6g (±%g rel)", name, got, want, tol)
		}
	}
	d, err := s.Delay()
	if err != nil {
		t.Fatal(err)
	}
	approx("delay", d, tau*math.Ln2, 0.01)
	rt, err := s.RiseTime()
	if err != nil {
		t.Fatal(err)
	}
	approx("rise time", rt, tau*math.Log(9), 0.01)
	sr, err := s.SlewRate()
	if err != nil {
		t.Fatal(err)
	}
	approx("slew rate", sr, 0.8*math.Abs(swing)/(tau*math.Log(9)), 0.01)
	// The sampled final value sits slightly short of the asymptote, which
	// shrinks the apparent band distance; 2% tolerance absorbs it.
	ts1, err := s.SettlingTime(0.01)
	if err != nil {
		t.Fatal(err)
	}
	approx("1% settling", ts1, tau*math.Log(100)+t0-t0, 0.02)
	ts01, err := s.SettlingTime(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if ts01 <= ts1 {
		t.Errorf("0.1%% settling %g not after 1%% settling %g", ts01, ts1)
	}
	if os := s.Overshoot(); os > 1e-9 {
		t.Errorf("monotone response reports overshoot %g", os)
	}
	if math.Abs(s.Swing()-swing*(1-math.Exp(-(tStop*0.99)/tau))) > 1e-3*math.Abs(swing) {
		t.Errorf("swing = %g", s.Swing())
	}
}

// Property: the settling time is monotone non-increasing in the tolerance
// band — a wider band can only be entered earlier. Checked on a ringing
// (underdamped) waveform where band nesting is non-trivial.
func TestStepSettlingMonotoneInTolerance(t *testing.T) {
	const (
		alpha = 3e5
		omega = 2 * math.Pi * 1e6
		n     = 9000
		tStop = 30e-6
	)
	var times, wave []float64
	for i := 0; i <= n; i++ {
		tt := tStop * float64(i) / float64(n)
		// Damped second-order step response (overshooting).
		wave = append(wave, 1-math.Exp(-alpha*tt)*(math.Cos(omega*tt)+alpha/omega*math.Sin(omega*tt)))
		times = append(times, tt)
	}
	s, err := NewStep(times, wave, 0)
	if err != nil {
		t.Fatal(err)
	}
	tols := []float64{0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001}
	prev := 0.0
	for i, tol := range tols {
		ts, err := s.SettlingTime(tol)
		if err != nil {
			t.Fatalf("tol %g: %v", tol, err)
		}
		if i > 0 && ts < prev {
			t.Errorf("settling not monotone: ts(%g)=%g < ts(%g)=%g", tol, ts, tols[i-1], prev)
		}
		prev = ts
	}
	if os := s.Overshoot(); math.Abs(os-math.Exp(-alpha*math.Pi/omega)) > 0.02 {
		t.Errorf("overshoot %g, analytic %g", os, math.Exp(-alpha*math.Pi/omega))
	}
}

// Property: every Step measure is invariant under a rigid time shift of
// (times, t0) — the measures depend on the waveform shape, not on where in
// the window it sits.
func TestStepMeasuresShiftInvariant(t *testing.T) {
	times, wave := firstOrderStep(1e-7, 1e-6, 0, 1, 10e-6, 500)
	base, err := NewStep(times, wave, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	for _, shift := range []float64{2.5e-6, 1e-3} {
		shifted := make([]float64, len(times))
		for i, tt := range times {
			shifted[i] = tt + shift
		}
		s, err := NewStep(shifted, wave, 1e-7+shift)
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, f func(*Step) (float64, error), relTol float64) {
			t.Helper()
			a, errA := f(base)
			b, errB := f(s)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: error mismatch under shift: %v vs %v", name, errA, errB)
			}
			if errA != nil {
				return
			}
			if math.Abs(a-b) > relTol*math.Abs(a) {
				t.Errorf("%s changed under shift %g: %.12g vs %.12g", name, shift, a, b)
			}
		}
		// Slew and rise are ratios of differences: exact up to rounding of
		// the shifted interpolation; settling and delay likewise.
		check("slew", (*Step).SlewRate, 1e-9)
		check("rise", (*Step).RiseTime, 1e-9)
		check("delay", (*Step).Delay, 1e-6)
		check("settling-1%", func(s *Step) (float64, error) { return s.SettlingTime(0.01) }, 1e-6)
		if a, b := base.Overshoot(), s.Overshoot(); a != b {
			t.Errorf("overshoot changed under shift: %g vs %g", a, b)
		}
	}
}

func TestStepDegenerateInputs(t *testing.T) {
	if _, err := NewStep([]float64{0}, []float64{1}, 0); err == nil {
		t.Error("single-point step accepted")
	}
	if _, err := NewStep([]float64{0, 1}, []float64{1}, 0); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewStep([]float64{0, 0}, []float64{1, 1}, 0); err == nil {
		t.Error("non-increasing times accepted")
	}
	flat, err := NewStep([]float64{0, 1, 2}, []float64{1, 1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.SettlingTime(0.01); !errors.Is(err, ErrNoSwing) {
		t.Errorf("flat settling err = %v, want ErrNoSwing", err)
	}
	if _, err := flat.SlewRate(); err == nil {
		t.Error("flat slew accepted")
	}
	// A waveform still ringing at the window's end must report ErrNoSettle.
	ringing, err := NewStep([]float64{0, 1, 2, 3, 4}, []float64{0, 2, 0, 2, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ringing.SettlingTime(0.01); !errors.Is(err, ErrNoSettle) {
		t.Errorf("ringing settling err = %v, want ErrNoSettle", err)
	}
	// The dwell requirement: a monotone waveform that only enters the band
	// of its own last sample in the final 1% of the window (the shape a
	// too-short analysis window produces when the integrator's last step is
	// clamped onto the window end) has not settled.
	lateEntry, err := NewStep(
		[]float64{0, 25, 50, 75, 99, 99.6, 100},
		[]float64{0, 40, 70, 90, 98.2, 99.95, 100},
		0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lateEntry.SettlingTime(0.01); !errors.Is(err, ErrNoSettle) {
		t.Errorf("late band entry settling err = %v, want ErrNoSettle", err)
	}
}

// On a coarse grid the settling band entry is interpolated between the last
// sample outside the band and the first inside it, the overshoot is the
// peak excursion over the swing, and a waveform that oscillates to the
// window's end never settles. (These are the checks of the spice package's
// former absolute-band Settling helper, which Step superseded.)
func TestStepSettlingOnCoarseGrid(t *testing.T) {
	times := []float64{0, 1, 2, 3, 4, 5}
	s, err := NewStep(times, []float64{0, 1.4, 0.8, 1.05, 1.0, 1.0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := s.SettlingTime(0.1)
	if err != nil {
		t.Fatalf("should settle: %v", err)
	}
	// |0.8−1| = 0.2 at t=2 and |1.05−1| = 0.05 at t=3: the 0.1 band is
	// entered two thirds of the way.
	if want := 2 + 2.0/3; math.Abs(ts-want) > 1e-12 {
		t.Errorf("settle time = %v, want %v", ts, want)
	}
	if over := s.Overshoot(); math.Abs(over-0.4) > 1e-12 {
		t.Errorf("overshoot = %v, want 0.4", over)
	}
	osc, err := NewStep(times, []float64{0, 2, 0, 2, 0, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := osc.SettlingTime(0.1); !errors.Is(err, ErrNoSettle) {
		t.Errorf("oscillating waveform settling err = %v, want ErrNoSettle", err)
	}
}

// The Bode measures must reproduce the closed-form figures of the analytic
// single-pole transfer function H(f) = A0/(1 + j·f/fp): DC gain, -3 dB
// corner at fp, unity crossing at fp·√(A0²−1) and the matching phase
// margin — the frequency-domain property pin mirroring the Step one.
func TestBodeSinglePoleAnalytic(t *testing.T) {
	const (
		a0 = 200.0
		fp = 1e4
	)
	var freqs []float64
	for f := 1e2; f <= 1e8; f *= math.Pow(10, 1.0/40) {
		freqs = append(freqs, f)
	}
	h := make([]complex128, len(freqs))
	for i, f := range freqs {
		h[i] = complex(a0, 0) / (1 + complex(0, f/fp))
	}
	b := NewBode(freqs, h)
	if got := b.DCGainDB(); math.Abs(got-DB(a0)) > 0.01 {
		t.Errorf("DC gain %.4f dB, want %.4f", got, DB(a0))
	}
	fu, err := b.UnityCrossing()
	if err != nil {
		t.Fatal(err)
	}
	wantFu := fp * math.Sqrt(a0*a0-1)
	if math.Abs(fu-wantFu) > 0.005*wantFu {
		t.Errorf("UGF %.6g, want %.6g", fu, wantFu)
	}
	f3, err := b.Bandwidth3dB()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f3-fp) > 0.02*fp {
		t.Errorf("-3dB %.6g, want %.6g", f3, fp)
	}
	pm, err := b.PhaseMargin()
	if err != nil {
		t.Fatal(err)
	}
	// PhaseMargin references the phase to the sweep's lowest frequency
	// (normalizing inverting amplifiers); the pole already contributes
	// −atan(f0/fp) there, so the closed form carries that reference term.
	wantPM := 180 - math.Atan(wantFu/fp)*180/math.Pi + math.Atan(freqs[0]/fp)*180/math.Pi
	if math.Abs(pm-wantPM) > 0.2 {
		t.Errorf("phase margin %.3f°, want %.3f°", pm, wantPM)
	}
}
