// Package measure post-processes AC sweeps into the performance figures the
// paper's specifications use: low-frequency gain, unity-gain bandwidth and
// phase margin.
package measure

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrNoCrossing reports that the response never crosses unity gain inside
// the swept range.
var ErrNoCrossing = errors.New("measure: no unity-gain crossing in sweep")

// DB converts a magnitude ratio to decibels.
func DB(x float64) float64 { return 20 * math.Log10(x) }

// FromDB converts decibels to a magnitude ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/20) }

// Bode holds magnitude (dB) and unwrapped phase (degrees) of a transfer
// function across a frequency sweep.
type Bode struct {
	Freqs []float64
	MagDB []float64
	Phase []float64
}

// NewBode converts complex phasors into a Bode dataset with unwrapped phase.
func NewBode(freqs []float64, h []complex128) *Bode {
	b := &Bode{
		Freqs: freqs,
		MagDB: make([]float64, len(h)),
		Phase: make([]float64, len(h)),
	}
	prev := 0.0
	for i, v := range h {
		m := cmplx.Abs(v)
		if m <= 0 {
			m = 1e-300
		}
		b.MagDB[i] = DB(m)
		ph := cmplx.Phase(v) * 180 / math.Pi
		if i > 0 {
			// Unwrap: keep |phase step| < 180°.
			for ph-prev > 180 {
				ph -= 360
			}
			for ph-prev < -180 {
				ph += 360
			}
		}
		b.Phase[i] = ph
		prev = ph
	}
	return b
}

// FallsThroughUnity reports whether a response falls through unity gain
// between consecutive sweep points: |prev| ≥ 1 and |cur| < 1. It is
// UnityCrossing's MagDB ≥ 0 → < 0 rule without the logarithms — NewBode's
// magnitudes are 20·log10|h| (with |h| = 0 clamped to a tiny positive
// value), which is ≥ 0 exactly when |h| ≥ 1 and < 0 exactly when |h| < 1,
// NaN failing both. A sweep that ends at the first such point therefore
// holds every point DCGainDB, UnityCrossing, GainBandwidth and PhaseMargin
// read; GainMargin and Bandwidth3dB may read beyond it.
func FallsThroughUnity(prev, cur complex128) bool {
	return cmplx.Abs(prev) >= 1 && cmplx.Abs(cur) < 1
}

// DCGainDB returns the gain at the lowest swept frequency.
func (b *Bode) DCGainDB() float64 {
	if len(b.MagDB) == 0 {
		return math.Inf(-1)
	}
	return b.MagDB[0]
}

// UnityCrossing returns the frequency where the magnitude crosses 0 dB,
// log-interpolated between sweep points.
func (b *Bode) UnityCrossing() (float64, error) {
	for i := 1; i < len(b.MagDB); i++ {
		m0, m1 := b.MagDB[i-1], b.MagDB[i]
		if m0 >= 0 && m1 < 0 {
			// Interpolate in log-frequency.
			t := m0 / (m0 - m1)
			lf := math.Log10(b.Freqs[i-1]) + t*(math.Log10(b.Freqs[i])-math.Log10(b.Freqs[i-1]))
			return math.Pow(10, lf), nil
		}
	}
	return 0, ErrNoCrossing
}

// PhaseAt returns the phase (degrees) at frequency f, interpolated in
// log-frequency.
func (b *Bode) PhaseAt(f float64) float64 {
	if len(b.Freqs) == 0 {
		return 0
	}
	if f <= b.Freqs[0] {
		return b.Phase[0]
	}
	for i := 1; i < len(b.Freqs); i++ {
		if f <= b.Freqs[i] {
			t := (math.Log10(f) - math.Log10(b.Freqs[i-1])) /
				(math.Log10(b.Freqs[i]) - math.Log10(b.Freqs[i-1]))
			return b.Phase[i-1] + t*(b.Phase[i]-b.Phase[i-1])
		}
	}
	return b.Phase[len(b.Phase)-1]
}

// PhaseMargin returns the phase margin in degrees: 180° plus the phase at
// the unity-gain crossing, normalized for an inverting DC response.
func (b *Bode) PhaseMargin() (float64, error) {
	fu, err := b.UnityCrossing()
	if err != nil {
		return 0, err
	}
	ph := b.PhaseAt(fu)
	// Reference the phase to the DC phase so inverting amplifiers
	// (DC phase 180°) and non-inverting ones are treated alike.
	ref := b.Phase[0]
	pm := 180 + (ph - ref)
	for pm > 360 {
		pm -= 360
	}
	for pm < -360 {
		pm += 360
	}
	return pm, nil
}

// GainBandwidth returns the unity-gain frequency (Hz).
func (b *Bode) GainBandwidth() (float64, error) { return b.UnityCrossing() }

// Bandwidth3dB returns the -3 dB frequency relative to the DC gain,
// log-interpolated between sweep points.
func (b *Bode) Bandwidth3dB() (float64, error) {
	if len(b.MagDB) == 0 {
		return 0, ErrNoCrossing
	}
	target := b.MagDB[0] - 3
	for i := 1; i < len(b.MagDB); i++ {
		if b.MagDB[i-1] >= target && b.MagDB[i] < target {
			t := (b.MagDB[i-1] - target) / (b.MagDB[i-1] - b.MagDB[i])
			lf := math.Log10(b.Freqs[i-1]) + t*(math.Log10(b.Freqs[i])-math.Log10(b.Freqs[i-1]))
			return math.Pow(10, lf), nil
		}
	}
	return 0, ErrNoCrossing
}

// GainMargin returns the gain margin in dB: the magnitude below 0 dB at the
// frequency where the phase (referenced to its DC value) crosses -180°.
// Systems whose phase never reaches -180° in the sweep return ErrNoCrossing.
func (b *Bode) GainMargin() (float64, error) {
	if len(b.Phase) == 0 {
		return 0, ErrNoCrossing
	}
	ref := b.Phase[0]
	for i := 1; i < len(b.Phase); i++ {
		p0, p1 := b.Phase[i-1]-ref, b.Phase[i]-ref
		if p0 > -180 && p1 <= -180 {
			t := (p0 + 180) / (p0 - p1)
			mag := b.MagDB[i-1] + t*(b.MagDB[i]-b.MagDB[i-1])
			return -mag, nil
		}
	}
	return 0, ErrNoCrossing
}
