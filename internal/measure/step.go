package measure

import (
	"errors"
	"fmt"
	"math"
)

// This file is the time-domain half of the measurement layer: it reduces a
// step-response waveform — typically the non-uniform grid of the adaptive
// transient integrator — to the figures transient specifications use: slew
// rate, settling time, overshoot and delay. All level crossings are
// linearly interpolated between samples, so the measures are continuous in
// the waveform (a prerequisite for a pass/fail oracle: a discretized
// measure would quantize the yield surface at the sampling grid).

// ErrNoSettle reports that the waveform never enters (and stays in) the
// settling band inside the analyzed window.
var ErrNoSettle = errors.New("measure: waveform does not settle in window")

// ErrNoSwing reports a degenerate step with no output swing to normalize
// against.
var ErrNoSwing = errors.New("measure: step response has no swing")

// Step is a step-response waveform prepared for time-domain measurement.
// The sample grid may be non-uniform; times must be strictly increasing.
type Step struct {
	times []float64
	wave  []float64
	t0    float64 // input step edge (reference for Delay and SettlingTime)
	v0    float64 // initial value
	v1    float64 // final value (last sample)
}

// NewStep wraps a waveform for measurement. t0 is the time of the input
// step edge; Delay and SettlingTime are reported relative to it. The final
// value is the last sample, so the window must extend past settling for
// the measures to be meaningful. The Step is a value, so a per-sample
// measure keeps it in its own frame and allocates nothing.
func NewStep(times, wave []float64, t0 float64) (Step, error) {
	if len(times) != len(wave) || len(times) < 2 {
		return Step{}, fmt.Errorf("measure: step needs matching times/wave with ≥ 2 points, got %d/%d",
			len(times), len(wave))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return Step{}, fmt.Errorf("measure: step times not strictly increasing at index %d", i)
		}
	}
	return Step{
		times: times,
		wave:  wave,
		t0:    t0,
		v0:    wave[0],
		v1:    wave[len(wave)-1],
	}, nil
}

// Swing returns the signed output excursion, final minus initial.
func (s *Step) Swing() float64 { return s.v1 - s.v0 }

// CrossingTime returns the first time the waveform crosses the given
// fraction of its swing (0 < frac < 1), linearly interpolated between the
// bracketing samples.
func (s *Step) CrossingTime(frac float64) (float64, error) {
	swing := s.Swing()
	if swing == 0 {
		return 0, ErrNoSwing
	}
	level := s.v0 + frac*swing
	for i := 1; i < len(s.wave); i++ {
		a, b := s.wave[i-1], s.wave[i]
		// Crossing in the step direction: progress measured along the swing.
		pa, pb := (a-s.v0)/swing, (b-s.v0)/swing
		if pa < frac && pb >= frac {
			t := (level - a) / (b - a)
			return s.times[i-1] + t*(s.times[i]-s.times[i-1]), nil
		}
	}
	return 0, fmt.Errorf("measure: waveform never reaches %.3g of its swing", frac)
}

// Delay returns the 50%-crossing time relative to the input edge t0.
func (s *Step) Delay() (float64, error) {
	tc, err := s.CrossingTime(0.5)
	if err != nil {
		return 0, err
	}
	return tc - s.t0, nil
}

// RiseTime returns the 10%→90% transition time.
func (s *Step) RiseTime() (float64, error) {
	t10, err := s.CrossingTime(0.1)
	if err != nil {
		return 0, err
	}
	t90, err := s.CrossingTime(0.9)
	if err != nil {
		return 0, err
	}
	return t90 - t10, nil
}

// SlewRate returns the magnitude of the average output slope across the
// 10%→90% transition (V/s) — the interpolated-crossing form, which is
// robust on a non-uniform grid where a per-sample max-slope estimate would
// be dominated by the shortest accepted step.
func (s *Step) SlewRate() (float64, error) {
	rt, err := s.RiseTime()
	if err != nil {
		return 0, err
	}
	if rt <= 0 {
		return 0, ErrNoSwing
	}
	return 0.8 * math.Abs(s.Swing()) / rt, nil
}

// Overshoot returns the peak excursion beyond the final value, in the step
// direction, as a fraction of the swing (0 when the response is monotone).
func (s *Step) Overshoot() float64 {
	swing := s.Swing()
	if swing == 0 {
		return 0
	}
	peak := 0.0
	for _, v := range s.wave {
		over := (v - s.v1) / swing // positive = beyond final, step direction
		if over > peak {
			peak = over
		}
	}
	return peak
}

// SettlingTime returns the time, relative to the input edge t0, after
// which the waveform stays within ±tolFrac·|swing| of its final value
// (tolFrac 0.01 and 0.001 are the classic 1% and 0.1% settling figures).
// The band entry is interpolated between the last sample outside the band
// and its successor. A waveform that does not dwell inside the band — at
// least two trailing samples and 2% of the window after entry — returns
// ErrNoSettle: the window ended before the answer existed. (Without the
// dwell requirement, a still-moving waveform whose final grid step happens
// to be tiny — the adaptive integrator clamps its last step onto the
// window end — would report a spurious settle against its own last
// sample.)
func (s *Step) SettlingTime(tolFrac float64) (float64, error) {
	swing := math.Abs(s.Swing())
	if swing == 0 {
		return 0, ErrNoSwing
	}
	tol := tolFrac * swing
	lastOutside := -1
	for i, v := range s.wave {
		if math.Abs(v-s.v1) > tol {
			lastOutside = i
		}
	}
	if lastOutside < 0 {
		// Inside the band from the first sample on.
		return math.Max(0, s.times[0]-s.t0), nil
	}
	// Require at least two trailing in-band samples so a waveform that only
	// touches the band at its very end does not count as settled.
	if lastOutside >= len(s.wave)-2 {
		return 0, ErrNoSettle
	}
	// Interpolate the band crossing between the last outside sample and the
	// first inside one.
	a, b := s.wave[lastOutside], s.wave[lastOutside+1]
	ta, tb := s.times[lastOutside], s.times[lastOutside+1]
	da, db := math.Abs(a-s.v1), math.Abs(b-s.v1)
	tc := ta
	if da != db {
		f := (da - tol) / (da - db)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		tc = ta + f*(tb-ta)
	}
	tEnd := s.times[len(s.times)-1]
	if tEnd-tc < 0.02*(tEnd-s.times[0]) {
		return 0, ErrNoSettle
	}
	return tc - s.t0, nil
}
