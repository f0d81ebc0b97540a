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

// FallsThroughUnity is the fall-through-unity rule, applied point by point
// along a sweep: given whether the previous point had |h| ≥ 1 (false at the
// first point), falls reports whether the response falls through unity at
// cur (|prev| ≥ 1 and |cur| < 1), and atLeast whether |cur| ≥ 1, the bit
// the next point is tested against. It is UnityCrossing's MagDB ≥ 0 → < 0
// rule without the logarithms — NewBode's magnitudes are 20·log10|h| (with
// |h| = 0 clamped to a tiny positive value), which is ≥ 0 exactly when
// |h| ≥ 1 and < 0 exactly when |h| < 1, NaN failing both. A sweep that ends
// at the first point where it falls therefore holds every point DCGainDB,
// UnityCrossing and PhaseMargin read. The probed AC sweep's stop rule and
// UnityCrossingOf both apply it, classifying each point once (unitySide).
func FallsThroughUnity(prevAtLeast bool, cur complex128) (falls, atLeast bool) {
	atLeast, below := unitySide(cur)
	return prevAtLeast && below, atLeast
}

// unityBand is the half-width of the band around |h|² = 1 in which
// unitySide defers to cmplx.Abs. Outside it the rounding of re²+im² (a few
// ulps, fused or not) and of Abs's hypot (an ulp) cannot carry a magnitude
// across 1.
const unityBand = 1e-9

// unitySide classifies |h| against 1 bit for bit as cmplx.Abs(h) compares:
// atLeast is cmplx.Abs(h) >= 1 and below is cmplx.Abs(h) < 1, so a NaN
// magnitude is neither. It decides from s = re²+im² outside unityBand of 1
// and calls cmplx.Abs inside it. The non-finite sums need no case of their
// own: s = +Inf (an overflowed square or an infinite part) has |h| ≥ 1,
// and a NaN s fails both comparisons and reaches Abs, whose special cases
// (an infinite part beats a NaN one) rule.
func unitySide(h complex128) (atLeast, below bool) {
	re, im := real(h), imag(h)
	switch s := re*re + im*im; {
	case s < 1-unityBand:
		return false, true
	case s > 1+unityBand:
		return true, false
	}
	m := cmplx.Abs(h)
	return m >= 1, m < 1
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

// Points is a response read at some points of a frequency grid: H[k] is
// the phasor at grid point At[k], At strictly ascending from 0. A nil At
// reads H densely, H[k] at point k. The probed AC sweep's bracketed record
// is one: point 0, the coarse points up to the first fall through unity and
// the points it solved inside that fall's bracket.
type Points struct {
	At []int
	H  []complex128
}

// point returns the grid point of H[k].
func (r Points) point(k int) int {
	if r.At == nil {
		return k
	}
	return r.At[k]
}

// The lazy measures below read a response straight from its phasors: each
// returns bit for bit what the same-named measure of NewBode returns on the
// dense prefix freqs[:n] ending at the record's last point, but takes the
// logarithms only where that measure reads them — the magnitude in dB at
// point 0 and at the two points of the first unity-gain fall — and the
// phases only up to the last point the phase margin interpolates at. On a
// sparse record that holds when the record has every point those measures
// read and its phases unwrap onto the dense branches: the fall's two points
// adjacent, the two points the phase margin interpolates between, and no
// step between recorded points that hides a fall or a turn of the phase
// (Vouches). The per-sample measures of a yield loop read three magnitudes
// and (for a phase-margin spec) a few phases out of a whole sweep.

// DCGainDBOf is NewBode(freqs, h).DCGainDB().
func DCGainDBOf(h []complex128) float64 {
	if len(h) == 0 {
		return math.Inf(-1)
	}
	return gainDB(cmplx.Abs(h[0]))
}

// UnityCrossingOf is NewBode's UnityCrossing() on r: the fall through unity
// is found record point by record point (FallsThroughUnity), and only the
// bracketing pair's magnitudes are computed.
func UnityCrossingOf(freqs []float64, r Points) (float64, error) {
	prevAtLeast := false
	for k, h := range r.H {
		falls, atLeast := FallsThroughUnity(prevAtLeast, h)
		if falls {
			m0, m1 := gainDB(cmplx.Abs(r.H[k-1])), gainDB(cmplx.Abs(h))
			return logInterp(freqs[r.point(k-1)], freqs[r.point(k)], m0/(m0-m1)), nil
		}
		prevAtLeast = atLeast
	}
	return 0, ErrNoCrossing
}

// PhaseMarginOf is NewBode's PhaseMargin() on r given its unity crossing fu
// (UnityCrossingOf's result; r non-empty): the crossing is located on the
// dense prefix the record ends, and the phases are unwrapped only up to the
// last point PhaseAt(fu) reads.
func PhaseMarginOf(freqs []float64, r Points, fu float64) float64 {
	last := r.point(len(r.H) - 1)
	i, t := segment(freqs[:last+1], fu)
	var ref, before, at float64
	for k := 0; k < len(r.H) && r.point(k) <= i; k++ {
		before = at
		at = unwrap(r.H[k], at, k == 0)
		if k == 0 {
			ref = at
		}
	}
	ph := at
	if i > 0 && i <= last {
		ph = before + t*(at-before)
	}
	return margin(ph, ref)
}

// Vouches reports whether two points of a sweep read with the points
// between them skipped, prev and then cur, may stand for the dense points
// between: the magnitude does not rise (|cur| ≤ |prev|, compared as
// re²+im²) and the phase turns by at most 90° (Re(cur·conj(prev)) ≥ 0). A
// smooth response then neither dips through unity between them nor turns
// its phase far enough for unwrap to pick another branch than the dense
// steps do. A NaN part, or one whose square overflows, fails it.
func Vouches(prev, cur complex128) bool {
	pr, pi, cr, ci := real(prev), imag(prev), real(cur), imag(cur)
	sp := pr*pr + pi*pi
	return cr*cr+ci*ci <= sp && sp <= math.MaxFloat64 && cr*pr+ci*pi >= 0
}

// NearUnity reports whether |h| lies within unityBand of 1 (in |h|²): a
// superset of the magnitudes at the point before a fall through unity for
// which the interpolated crossing can round to or below that point, so that
// PhaseAt reads the phase of the point before it. That needs the weight
// m0/(m0−m1) below about 1e-14, and with m1 ≥ −6000 dB (gainDB's floor)
// |h|²−1 below about 1e-11.
func NearUnity(h complex128) bool {
	re, im := real(h), imag(h)
	return math.Abs(re*re+im*im-1) <= unityBand
}
