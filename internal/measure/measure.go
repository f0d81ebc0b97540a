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
		b.MagDB[i] = gainDB(cmplx.Abs(v))
		prev = unwrap(v, prev, i == 0)
		b.Phase[i] = prev
	}
	return b
}

// gainDB is a Bode magnitude in dB: |h| = 0 is clamped to a tiny positive
// value so it stays finite.
func gainDB(m float64) float64 {
	if m <= 0 {
		m = 1e-300
	}
	return DB(m)
}

// unwrap returns the phase of v in degrees, unwrapped against the unwrapped
// phase prev of the point before it (first: v is the sweep's first point).
func unwrap(v complex128, prev float64, first bool) float64 {
	ph := cmplx.Phase(v) * 180 / math.Pi
	if !first {
		// Unwrap: keep |phase step| < 180°.
		for ph-prev > 180 {
			ph -= 360
		}
		for ph-prev < -180 {
			ph += 360
		}
	}
	return ph
}

// FallsThroughUnity reports whether a response falls through unity gain
// between consecutive sweep points of magnitudes prev and cur: prev ≥ 1 and
// cur < 1. It is UnityCrossing's MagDB ≥ 0 → < 0 rule without the
// logarithms — NewBode's magnitudes are 20·log10|h| (with |h| = 0 clamped
// to a tiny positive value), which is ≥ 0 exactly when |h| ≥ 1 and < 0
// exactly when |h| < 1, NaN failing both. A sweep that ends at the first
// such point therefore holds every point DCGainDB, UnityCrossing,
// GainBandwidth and PhaseMargin read; GainMargin and Bandwidth3dB may read
// beyond it.
func FallsThroughUnity(prev, cur float64) bool {
	return prev >= 1 && cur < 1
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
			return logInterp(b.Freqs[i-1], b.Freqs[i], m0/(m0-m1)), nil
		}
	}
	return 0, ErrNoCrossing
}

// logInterp returns the frequency at fraction t from f0 to f1 in
// log-frequency.
func logInterp(f0, f1, t float64) float64 {
	lf := math.Log10(f0) + t*(math.Log10(f1)-math.Log10(f0))
	return math.Pow(10, lf)
}

// PhaseAt returns the phase (degrees) at frequency f, interpolated in
// log-frequency.
func (b *Bode) PhaseAt(f float64) float64 {
	if len(b.Freqs) == 0 {
		return 0
	}
	switch i, t := segment(b.Freqs, f); i {
	case 0:
		return b.Phase[0]
	case len(b.Freqs):
		return b.Phase[len(b.Phase)-1]
	default:
		return b.Phase[i-1] + t*(b.Phase[i]-b.Phase[i-1])
	}
}

// segment locates f on a non-empty sweep the way PhaseAt reads it: i is
// the first point with f ≤ freqs[i], or len(freqs) when f lies beyond the
// last one, and for 0 < i < len(freqs) f sits at log-frequency fraction t
// from point i-1 to point i.
func segment(freqs []float64, f float64) (i int, t float64) {
	if f <= freqs[0] {
		return 0, 0
	}
	for i := 1; i < len(freqs); i++ {
		if f <= freqs[i] {
			t := (math.Log10(f) - math.Log10(freqs[i-1])) /
				(math.Log10(freqs[i]) - math.Log10(freqs[i-1]))
			return i, t
		}
	}
	return len(freqs), 0
}

// PhaseMargin returns the phase margin in degrees: 180° plus the phase at
// the unity-gain crossing, normalized for an inverting DC response.
func (b *Bode) PhaseMargin() (float64, error) {
	fu, err := b.UnityCrossing()
	if err != nil {
		return 0, err
	}
	return margin(b.PhaseAt(fu), b.Phase[0]), nil
}

// margin is the phase margin of the phase ph at the unity crossing.
func margin(ph, ref float64) float64 {
	// Reference the phase to the DC phase so inverting amplifiers
	// (DC phase 180°) and non-inverting ones are treated alike.
	pm := 180 + (ph - ref)
	for pm > 360 {
		pm -= 360
	}
	for pm < -360 {
		pm += 360
	}
	return pm
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
			return logInterp(b.Freqs[i-1], b.Freqs[i], t), nil
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

// The lazy measures below read a response straight from its phasors h on
// freqs[:len(h)]: each returns bit for bit what the same-named measure of
// NewBode(freqs[:len(h)], h) returns, but takes the logarithms only where
// that measure reads them — the magnitude in dB at h[0] and at the two
// points of the first unity-gain fall — and the phases only up to the last
// point the phase margin interpolates at. The per-sample measures of a
// yield loop read three magnitudes and (for a phase-margin spec) a few
// phases out of a whole sweep.

// DCGainDBOf is NewBode(freqs, h).DCGainDB().
func DCGainDBOf(h []complex128) float64 {
	if len(h) == 0 {
		return math.Inf(-1)
	}
	return gainDB(cmplx.Abs(h[0]))
}

// UnityCrossingOf is NewBode(freqs[:len(h)], h).UnityCrossing(), found by
// FallsThroughUnity on the magnitudes, one per point.
func UnityCrossingOf(freqs []float64, h []complex128) (float64, error) {
	if len(h) == 0 {
		return 0, ErrNoCrossing
	}
	prev := cmplx.Abs(h[0])
	for i := 1; i < len(h); i++ {
		cur := cmplx.Abs(h[i])
		if FallsThroughUnity(prev, cur) {
			m0, m1 := gainDB(prev), gainDB(cur)
			return logInterp(freqs[i-1], freqs[i], m0/(m0-m1)), nil
		}
		prev = cur
	}
	return 0, ErrNoCrossing
}

// PhaseMarginOf is NewBode(freqs[:len(h)], h).PhaseMargin() given its unity
// crossing fu (UnityCrossingOf's result; h non-empty): the phases are
// unwrapped only up to the last point PhaseAt(fu) reads.
func PhaseMarginOf(freqs []float64, h []complex128, fu float64) float64 {
	i, t := segment(freqs[:len(h)], fu)
	var ref, before, at float64
	for j := 0; j <= min(i, len(h)-1); j++ {
		before = at
		at = unwrap(h[j], at, j == 0)
		if j == 0 {
			ref = at
		}
	}
	ph := at
	if i > 0 && i < len(h) {
		ph = before + t*(at-before)
	}
	return margin(ph, ref)
}
