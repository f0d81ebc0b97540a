package measure

import (
	"fmt"
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
	prevAtLeast := false
	for i, cur := range vals {
		want := i > 0 && magDB(vals[i-1]) >= 0 && magDB(cur) < 0
		falls, atLeast := FallsThroughUnity(prevAtLeast, cur)
		if falls != want || atLeast != (magDB(cur) >= 0) {
			t.Fatalf("FallsThroughUnity(%v, %v) = (%v, %v), MagDB rule (%v, %v)", prevAtLeast, cur, falls, atLeast, want, magDB(cur) >= 0)
		}
		prevAtLeast = atLeast
	}
}

// unitySide must decide |h| ≥ 1 and |h| < 1 exactly as cmplx.Abs does:
// within a few ulps of 1 on the axes and at arbitrary angles (where it
// defers to Abs), just outside its band (where it decides from re²+im²
// alone), and on ±0, subnormals, huge values, ±Inf and NaN.
func TestUnitySideMatchesAbs(t *testing.T) {
	var vals []complex128
	for _, r0 := range []float64{1, 1 - 2*unityBand, 1 + 2*unityBand, 1 - unityBand/2, 1 + unityBand/2} {
		below, above := r0, r0
		for k := 0; k <= 8; k++ {
			for _, m := range []float64{below, above} {
				vals = append(vals, complex(m, 0), complex(-m, 0), complex(0, m), complex(0, -m))
			}
			below, above = math.Nextafter(below, 0), math.Nextafter(above, 2)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 20000; k++ {
		th := 2 * math.Pi * rng.Float64()
		r := 1 + float64(k%17-8)*0x1p-52
		if k%5 == 0 {
			// Moduli spread over and beyond the band.
			r = 1 + (rng.Float64()-0.5)*8*unityBand
		}
		vals = append(vals, complex(r*math.Cos(th), r*math.Sin(th)))
	}
	inf, nan, negZero, sub := math.Inf(1), math.NaN(), math.Copysign(0, -1), math.SmallestNonzeroFloat64
	for _, re := range []float64{0, negZero, sub, -sub, 0x1p-1022, 0.5, 1, -1, 1e154, 1e200, math.MaxFloat64, inf, -inf, nan} {
		for _, im := range []float64{0, negZero, sub, 0.5, -1, 1e200, -math.MaxFloat64, inf, -inf, nan} {
			vals = append(vals, complex(re, im))
		}
	}
	for _, v := range vals {
		a := cmplx.Abs(v)
		atLeast, below := unitySide(v)
		if atLeast != (a >= 1) || below != (a < 1) {
			t.Fatalf("unitySide(%v) = (%v, %v), cmplx.Abs = %v (≥1 %v, <1 %v)", v, atLeast, below, a, a >= 1, a < 1)
		}
	}
	if atLeast, below := unitySide(complex(nan, 0)); atLeast || below {
		t.Fatalf("unitySide(NaN) = (%v, %v): NaN must fail both tests", atLeast, below)
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
		prevAtLeast := false
		for i := range h {
			falls, atLeast := FallsThroughUnity(prevAtLeast, h[i])
			if falls {
				m = i + 1
				break
			}
			prevAtLeast = atLeast
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

// bodeBits is the DC gain, unity crossing (or its error) and phase margin
// of r as one comparable string.
func bodeBits(freqs []float64, r Points) string {
	a0 := DCGainDBOf(r.H)
	fu, err := UnityCrossingOf(freqs, r)
	if err != nil {
		return fmt.Sprintf("%x %v", math.Float64bits(a0), err)
	}
	pm := PhaseMarginOf(freqs, r, fu)
	return fmt.Sprintf("%x %x %x", math.Float64bits(a0), math.Float64bits(fu), math.Float64bits(pm))
}

// The measures read a sparse record as the dense prefix it ends: on random
// multi-pole responses, a record of every 8th point up to the crossing and
// the three points before and at it reads the dense prefix's bits, and so
// does the record naming every point of that prefix.
func TestPointsMeasuresMatchDensePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sparse := 0
	for trial := 0; trial < 2000; trial++ {
		a := math.Pow(10, rng.Float64()*5-1)
		if rng.Intn(2) == 0 {
			a = -a
		}
		freqs, h := twoPole(a, math.Pow(10, 2+4*rng.Float64()), math.Pow(10, 5+4*rng.Float64()), 1e3, 1e9, 49)
		m := len(h)
		prevAtLeast := false
		for i := range h {
			falls, atLeast := FallsThroughUnity(prevAtLeast, h[i])
			if falls {
				m = i + 1
				break
			}
			prevAtLeast = atLeast
		}
		want := bodeBits(freqs, Points{H: h[:m]})
		all := Points{H: h[:m]}
		for i := range all.H {
			all.At = append(all.At, i)
		}
		if got := bodeBits(freqs, all); got != want {
			t.Fatalf("trial %d: the full index record reads %s, the dense prefix %s", trial, got, want)
		}
		if m == len(h) {
			continue
		}
		var r Points
		for i := 0; i < m; i++ {
			if i%8 == 0 || i >= m-3 {
				r.At, r.H = append(r.At, i), append(r.H, h[i])
			}
		}
		if got := bodeBits(freqs, r); got != want {
			t.Fatalf("trial %d: the record %v reads %s, the %d-point dense prefix %s", trial, r.At, got, m, want)
		}
		sparse++
	}
	if sparse == 0 {
		t.Fatal("no response crossed: the sparse records are never read")
	}
}

// Vouches accepts a step whose magnitude does not rise and whose phase
// turns by at most 90°, and nothing non-finite.
func TestVouches(t *testing.T) {
	up := math.Nextafter(2, 3)
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		prev, cur complex128
		want      bool
	}{
		{2, 2, true},
		{2, 1, true},
		{2, complex(up, 0), false},
		{complex(0, -2), complex(0, -1), true},
		{1, cmplx.Rect(0.5, -89*math.Pi/180), true},
		{1, cmplx.Rect(0.5, -91*math.Pi/180), false},
		{1, complex(0, -0.5), true}, // exactly 90°
		{-1, 0.5, false},
		{1, 0, true},
		{0, 0, true},
		{complex(nan, 0), 0.5, false},
		{1, complex(0.5, nan), false},
		{complex(inf, 0), 1, false},
		{1e200, 1e199, false}, // the squares overflow
	} {
		if got := Vouches(c.prev, c.cur); got != c.want {
			t.Errorf("Vouches(%v, %v) = %v, want %v", c.prev, c.cur, got, c.want)
		}
	}
}

// NearUnity covers every magnitude at the point before a fall for which
// the interpolated crossing rounds to or below that point: on every pair
// of a LogSpace grid, with the first magnitude from exactly 1 out to far
// beyond the band and the second from just below 1 down to 0.
func TestNearUnityCoversCrossingAtPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	freqs := []float64{1e3}
	for f := 1e3; f < 5e9; {
		f *= math.Pow(10, 1.0/8)
		freqs = append(freqs, f)
	}
	atPoint := 0
	for trial := 0; trial < 200000; trial++ {
		i := 1 + rng.Intn(len(freqs)-1)
		m0 := 1 + math.Pow(10, -16+10*rng.Float64())
		if trial%4 == 0 {
			m0 = 1
		}
		m1 := math.Pow(10, -300*rng.Float64())
		if trial%5 == 0 {
			m1 = 0
		}
		th0, th1 := 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
		h0, h1 := cmplx.Rect(m0, th0), cmplx.Rect(m1, th1)
		if falls, _ := FallsThroughUnity(true, h1); !falls || cmplx.Abs(h0) < 1 {
			continue
		}
		fu, err := UnityCrossingOf(freqs[i-1:i+1], Points{H: []complex128{h0, h1}})
		if err != nil {
			t.Fatalf("%v → %v: %v", h0, h1, err)
		}
		if fu <= freqs[i-1] {
			atPoint++
			if !NearUnity(h0) {
				t.Fatalf("|h| = %v before the fall: the crossing %v rounds to the point %v, but NearUnity is false", cmplx.Abs(h0), fu, freqs[i-1])
			}
		}
	}
	if atPoint == 0 {
		t.Fatal("no crossing rounded to its point: the trials miss the case")
	}
	for _, h := range []complex128{1, complex(0, -1), complex(1+2*unityBand, 0), 0.5, complex(math.NaN(), 0), complex(math.Inf(1), 0)} {
		want := h == 1 || h == complex(0, -1)
		if got := NearUnity(h); got != want {
			t.Errorf("NearUnity(%v) = %v, want %v", h, got, want)
		}
	}
}
