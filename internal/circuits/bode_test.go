package circuits

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/spice"
)

// bodeOracle is bodeMeasures as it read a sweep before the lazy measures:
// the whole Bode dataset, then DCGainDB, UnityCrossing and PhaseMargin.
func bodeOracle(freqs []float64, h []complex128) (a0dB, gbw, pm float64) {
	bode := measure.NewBode(freqs[:len(h)], h)
	a0dB = bode.DCGainDB()
	gbw, err := bode.UnityCrossing()
	if err != nil {
		gbw = 0
	}
	if gbw > 0 {
		if m, err := bode.PhaseMargin(); err == nil {
			pm = m
		}
	}
	return a0dB, gbw, pm
}

// sameMeasure reports bit identity, any NaN matching any NaN.
func sameMeasure(a, b float64) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkBode compares bodeMeasures with and without the phase margin against
// the oracle on one sweep.
func checkBode(t *testing.T, what string, freqs []float64, h []complex128) {
	t.Helper()
	a0, gbw, pm := bodeOracle(freqs, h)
	for _, withPM := range []bool{true, false} {
		wantPM := pm
		if !withPM {
			wantPM = 0
		}
		g0, gg, gp := bodeMeasures(freqs, measure.Points{H: h}, withPM)
		if !sameMeasure(g0, a0) || !sameMeasure(gg, gbw) || !sameMeasure(gp, wantPM) {
			t.Fatalf("%s (withPM %v, %d points): lazy (%v, %v, %v), NewBode (%v, %v, %v)\nh=%v",
				what, withPM, len(h), g0, gg, gp, a0, gbw, wantPM, h)
		}
	}
}

// The lazy bodeMeasures equal NewBode + UnityCrossing + PhaseMargin bit for
// bit: on random multi-pole responses, full range and cut at the probed
// sweep's stop point; on sweeps that fall through unity at every index,
// with phases that wrap; on sweeps that never cross, rise through unity or
// sit on |h| = 1 to the ulp; and with zero, NaN and infinite phasors at the
// first point, before the crossing and on it.
func TestLazyBodeMatchesNewBode(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	freqs := spice.LogSpace(1e3, 5e9, 8)
	n := len(freqs)
	crossed := 0
	for trial := 0; trial < 3000; trial++ {
		a := math.Pow(10, rng.Float64()*5-1)
		if rng.Intn(2) == 0 {
			a = -a
		}
		p1, p2, p3 := math.Pow(10, 2+4*rng.Float64()), math.Pow(10, 5+4*rng.Float64()), math.Pow(10, 6+4*rng.Float64())
		h := make([]complex128, n)
		for i, f := range freqs {
			h[i] = complex(a, 0) / ((1 + complex(0, f/p1)) * (1 + complex(0, f/p2)))
			if trial%3 == 0 {
				h[i] /= 1 + complex(0, f/p3)
			}
		}
		checkBode(t, "multi-pole", freqs, h)
		prevAtLeast := false
		for i := range h {
			falls, atLeast := measure.FallsThroughUnity(prevAtLeast, h[i])
			if falls {
				crossed++
				checkBode(t, "multi-pole prefix", freqs, h[:i+1])
				break
			}
			prevAtLeast = atLeast
		}
	}
	if crossed == 0 {
		t.Fatal("no random response crossed unity: the trials miss the crossing case")
	}

	phasor := func(m float64) complex128 { return cmplx.Rect(m, 2*math.Pi*rng.Float64()-math.Pi) }
	for c := 1; c < n; c++ {
		for trial := 0; trial < 20; trial++ {
			h := make([]complex128, n)
			for i := range h {
				m := 1 + 10*rng.Float64()
				if i >= c {
					m = rng.Float64()
				}
				h[i] = phasor(m)
			}
			checkBode(t, "crossing", freqs, h)
			checkBode(t, "crossing prefix", freqs, h[:c+1])
		}
	}

	below, above := math.Nextafter(1, 0), math.Nextafter(1, 2)
	inf, nan := math.Inf(1), math.NaN()
	special := []complex128{0, complex(math.Copysign(0, -1), 0), complex(nan, 0), complex(0, nan),
		complex(inf, 0), complex(-inf, nan), 1, -1, complex(0, 1), complex(below, 0), complex(above, 0),
		complex(5e-324, 0), complex(math.MaxFloat64, math.MaxFloat64)}
	for _, v := range special {
		for at := 0; at < n; at++ {
			for _, shape := range []string{"fall", "never", "rise", "ones"} {
				h := make([]complex128, n)
				for i := range h {
					switch shape {
					case "fall":
						h[i] = phasor(100 / math.Pow(2, float64(i)))
					case "never":
						h[i] = phasor(2 + float64(i))
					case "rise":
						h[i] = phasor(math.Pow(2, float64(i)) / 100)
					case "ones":
						h[i] = [3]complex128{1, complex(below, 0), complex(above, 0)}[rng.Intn(3)]
					}
				}
				h[at] = v
				checkBode(t, shape+" special", freqs, h)
			}
		}
	}
	checkBode(t, "empty", freqs, nil)
	checkBode(t, "one point", freqs, []complex128{complex(3, -4)})
}
