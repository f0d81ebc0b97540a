package measure

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// onePole builds H(s) = A/(1+s/p) sampled log-spaced.
func onePole(a, pole float64, fStart, fStop float64, n int) ([]float64, []complex128) {
	freqs := make([]float64, n)
	h := make([]complex128, n)
	lf0, lf1 := math.Log10(fStart), math.Log10(fStop)
	for i := 0; i < n; i++ {
		f := math.Pow(10, lf0+(lf1-lf0)*float64(i)/float64(n-1))
		freqs[i] = f
		s := complex(0, f/pole)
		h[i] = complex(a, 0) / (1 + s)
	}
	return freqs, h
}

// twoPole builds H(s) = A/((1+s/p1)(1+s/p2)).
func twoPole(a, p1, p2 float64, fStart, fStop float64, n int) ([]float64, []complex128) {
	freqs, h := onePole(a, p1, fStart, fStop, n)
	for i, f := range freqs {
		h[i] /= 1 + complex(0, f/p2)
	}
	return freqs, h
}

func TestDBConversions(t *testing.T) {
	if DB(10) != 20 {
		t.Errorf("DB(10) = %v", DB(10))
	}
	if math.Abs(FromDB(40)-100) > 1e-9 {
		t.Errorf("FromDB(40) = %v", FromDB(40))
	}
}

func TestDCGain(t *testing.T) {
	freqs, h := onePole(1000, 1e4, 1, 1e9, 200)
	b := NewBode(freqs, h)
	if math.Abs(b.DCGainDB()-60) > 0.01 {
		t.Errorf("DC gain = %v dB, want 60", b.DCGainDB())
	}
}

func TestUnityCrossingOnePole(t *testing.T) {
	// A=1000, p=1e4 → GBW ≈ A·p = 1e7 (single pole).
	freqs, h := onePole(1000, 1e4, 1, 1e9, 400)
	b := NewBode(freqs, h)
	fu, err := b.UnityCrossing()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fu-1e7)/1e7 > 0.01 {
		t.Errorf("unity crossing = %v, want ~1e7", fu)
	}
}

func TestNoCrossing(t *testing.T) {
	freqs, h := onePole(0.5, 1e4, 1, 1e6, 50) // gain < 1 everywhere
	b := NewBode(freqs, h)
	if _, err := b.UnityCrossing(); err == nil {
		t.Error("expected ErrNoCrossing")
	}
	if _, err := b.PhaseMargin(); err == nil {
		t.Error("phase margin should propagate the error")
	}
}

func TestPhaseMarginSinglePole(t *testing.T) {
	// Single-pole system: PM ≈ 90°.
	freqs, h := onePole(1000, 1e4, 1, 1e9, 400)
	b := NewBode(freqs, h)
	pm, err := b.PhaseMargin()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pm-90) > 1.5 {
		t.Errorf("PM = %v, want ~90", pm)
	}
}

func TestPhaseMarginTwoPole(t *testing.T) {
	// Second pole at the unity crossing: PM ≈ 45°.
	a, p1 := 1000.0, 1e4
	fu := a * p1
	freqs, h := twoPole(a, p1, fu, 1, 1e10, 600)
	b := NewBode(freqs, h)
	pm, err := b.PhaseMargin()
	if err != nil {
		t.Fatal(err)
	}
	// The crossing shifts slightly below A·p1 with two poles.
	if pm < 40 || pm > 55 {
		t.Errorf("PM = %v, want ≈ 45–50", pm)
	}
}

func TestPhaseMarginInvertingAmp(t *testing.T) {
	// Inverting amp: same response with sign flipped; PM must be identical
	// because the reference is the DC phase.
	freqs, h := onePole(1000, 1e4, 1, 1e9, 400)
	for i := range h {
		h[i] = -h[i]
	}
	b := NewBode(freqs, h)
	pm, err := b.PhaseMargin()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pm-90) > 1.5 {
		t.Errorf("inverting PM = %v, want ~90", pm)
	}
}

func TestPhaseUnwrap(t *testing.T) {
	// Three-pole system sweeps ~270° of phase; unwrapped phase must be
	// monotonically decreasing without ±360 jumps.
	freqs, h := twoPole(1e4, 1e3, 1e5, 1, 1e10, 500)
	for i, f := range freqs {
		h[i] /= 1 + complex(0, f/1e7)
	}
	b := NewBode(freqs, h)
	for i := 1; i < len(b.Phase); i++ {
		if b.Phase[i] > b.Phase[i-1]+1e-6 {
			t.Fatalf("phase not monotone at %d: %v -> %v", i, b.Phase[i-1], b.Phase[i])
		}
	}
	if b.Phase[len(b.Phase)-1] > -240 {
		t.Errorf("final phase = %v, want < -240", b.Phase[len(b.Phase)-1])
	}
}

func TestPhaseAtInterpolation(t *testing.T) {
	freqs, h := onePole(1, 1e4, 1e2, 1e6, 100)
	b := NewBode(freqs, h)
	// At the pole frequency the phase is -45°.
	if ph := b.PhaseAt(1e4); math.Abs(ph+45) > 1 {
		t.Errorf("phase at pole = %v, want -45", ph)
	}
	// Clamping at the ends.
	if ph := b.PhaseAt(1); math.Abs(ph-b.Phase[0]) > 1e-9 {
		t.Errorf("low clamp = %v", ph)
	}
	if ph := b.PhaseAt(1e9); math.Abs(ph-b.Phase[len(b.Phase)-1]) > 1e-9 {
		t.Errorf("high clamp = %v", ph)
	}
}

func TestNewBodeZeroMagnitude(t *testing.T) {
	b := NewBode([]float64{1, 10}, []complex128{0, complex(1, 0)})
	if !math.IsInf(b.MagDB[0], -1) && b.MagDB[0] > -1000 {
		t.Errorf("zero magnitude should map to very low dB, got %v", b.MagDB[0])
	}
}

func TestGainBandwidthAlias(t *testing.T) {
	freqs, h := onePole(100, 1e5, 1, 1e9, 300)
	b := NewBode(freqs, h)
	gbw, err := b.GainBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	fu, _ := b.UnityCrossing()
	if gbw != fu {
		t.Error("GainBandwidth should alias UnityCrossing")
	}
	_ = cmplx.Abs // keep import if unused elsewhere
}

func TestBandwidth3dB(t *testing.T) {
	freqs, h := onePole(1000, 1e4, 1, 1e9, 400)
	b := NewBode(freqs, h)
	bw, err := b.Bandwidth3dB()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bw-1e4)/1e4 > 0.02 {
		t.Errorf("f3dB = %v, want ~1e4", bw)
	}
	// Flat response has no -3 dB point.
	flat := NewBode([]float64{1, 10, 100}, []complex128{1, 1, 1})
	if _, err := flat.Bandwidth3dB(); err == nil {
		t.Error("flat response should have no 3dB corner")
	}
}

func TestGainMargin(t *testing.T) {
	// Three-pole system crosses -180°; the margin must be positive for a
	// crossing beyond the unity frequency.
	freqs, h := twoPole(100, 1e3, 1e4, 1, 1e10, 800)
	for i, f := range freqs {
		h[i] /= 1 + complex(0, f/1e5)
	}
	b := NewBode(freqs, h)
	gm, err := b.GainMargin()
	if err != nil {
		t.Fatal(err)
	}
	if gm <= 0 || gm > 60 {
		t.Errorf("gain margin = %v dB", gm)
	}
	// Two-pole systems never reach -180°.
	freqs2, h2 := twoPole(100, 1e3, 1e4, 1, 1e9, 400)
	b2 := NewBode(freqs2, h2)
	if _, err := b2.GainMargin(); err == nil {
		t.Error("two-pole system should have no -180° crossing")
	}
}

// magDB is the magnitude NewBode reports for one phasor.
func magDB(v complex128) float64 {
	return NewBode([]float64{1}, []complex128{v}).MagDB[0]
}

// The sweep stop rule tests |v| ≥ 1 and |v| < 1 where UnityCrossing tests
// MagDB ≥ 0 and MagDB < 0; the two agree on every value — at 1 and within
// a few ulps of it on either side, on rotated phasors whose modulus rounds
// near 1, and on 0, NaN, ±Inf, subnormals and huge values.
func TestFallsThroughUnityMatchesMagDB(t *testing.T) {
	var vals []complex128
	below, above := 1.0, 1.0
	for k := 0; k <= 8; k++ {
		for _, m := range []float64{below, above} {
			vals = append(vals, complex(m, 0), complex(-m, 0), complex(0, m), complex(0, -m))
		}
		below, above = math.Nextafter(below, 0), math.Nextafter(above, 2)
	}
	for k := 0; k < 2000; k++ {
		// Moduli within a few ulps of 1 at arbitrary angles: the hypot
		// rounding decides which side of 1 they land on.
		th := 2 * math.Pi * float64(k) / 2000
		r := 1 + float64(k%9-4)*0x1p-52
		vals = append(vals, complex(r*math.Cos(th), r*math.Sin(th)))
	}
	inf, nan := math.Inf(1), math.NaN()
	vals = append(vals, 0, complex(math.Copysign(0, -1), 0), complex(0.6, 0.8), complex(0.8, -0.6),
		complex(nan, 0), complex(0, nan), complex(inf, 0), complex(-inf, nan), complex(nan, -inf),
		complex(5e-324, 0), complex(1e308, 1e308), complex(math.MaxFloat64, 0))
	for _, v := range vals {
		a, db := cmplx.Abs(v), magDB(v)
		if (a >= 1) != (db >= 0) || (a < 1) != (db < 0) {
			t.Fatalf("v=%v: |v|=%v (≥1 %v, <1 %v) but MagDB=%v (≥0 %v, <0 %v)",
				v, a, a >= 1, a < 1, db, db >= 0, db < 0)
		}
	}
	for i := 1; i < len(vals); i++ {
		prev, cur := vals[i-1], vals[i]
		want := magDB(prev) >= 0 && magDB(cur) < 0
		if got := FallsThroughUnity(cmplx.Abs(prev), cmplx.Abs(cur)); got != want {
			t.Fatalf("FallsThroughUnity(%v, %v) = %v, MagDB rule %v", prev, cur, got, want)
		}
	}
}

// The measures a probed sweep feeds (DC gain, unity crossing, phase
// margin) read nothing past the first point where |H| falls through 1:
// on random multi-pole responses they come out bit-identical on the prefix
// ending there and on the full sweep.
func TestUnityPrefixMeasuresMatchFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stopped := 0
	for trial := 0; trial < 2000; trial++ {
		a := math.Pow(10, rng.Float64()*5-1) // 0.1 … 1e4: some never cross
		if rng.Intn(2) == 0 {
			a = -a // inverting
		}
		freqs, h := twoPole(a, math.Pow(10, 2+4*rng.Float64()), math.Pow(10, 5+4*rng.Float64()),
			1e3, 1e9, 20+rng.Intn(60))
		if rng.Intn(3) == 0 {
			for i, f := range freqs {
				h[i] /= 1 + complex(0, f/math.Pow(10, 6+3*rng.Float64()))
			}
		}
		m := len(h)
		for i := 1; i < len(h); i++ {
			if FallsThroughUnity(cmplx.Abs(h[i-1]), cmplx.Abs(h[i])) {
				m = i + 1
				break
			}
		}
		if m < len(h) {
			stopped++
		}
		full, pre := NewBode(freqs, h), NewBode(freqs[:m], h[:m])
		if g0, g1 := full.DCGainDB(), pre.DCGainDB(); math.Float64bits(g0) != math.Float64bits(g1) {
			t.Fatalf("trial %d: DC gain %v vs prefix %v", trial, g0, g1)
		}
		f0, e0 := full.UnityCrossing()
		f1, e1 := pre.UnityCrossing()
		if math.Float64bits(f0) != math.Float64bits(f1) || e0 != e1 {
			t.Fatalf("trial %d: unity crossing (%v, %v) vs prefix (%v, %v)", trial, f0, e0, f1, e1)
		}
		p0, e0 := full.PhaseMargin()
		p1, e1 := pre.PhaseMargin()
		if math.Float64bits(p0) != math.Float64bits(p1) || e0 != e1 {
			t.Fatalf("trial %d: phase margin (%v, %v) vs prefix (%v, %v)", trial, p0, e0, p1, e1)
		}
	}
	if stopped == 0 || stopped == 2000 {
		t.Fatalf("%d of 2000 responses stopped early: the trials miss a case", stopped)
	}
}
