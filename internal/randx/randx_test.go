package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeriveDeterministic(t *testing.T) {
	s := New(42)
	a := s.Derive(1, 2)
	b := s.Derive(1, 2)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("derived streams with same ids disagree")
		}
	}
}

func TestDeriveIndependent(t *testing.T) {
	s := New(42)
	a := s.Derive(1)
	b := s.Derive(2)
	same := 0
	for i := 0; i < 32; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different ids produced %d identical words", same)
	}
}

func TestDeriveSeedMatchesDerive(t *testing.T) {
	a, b := New(99).Derive(3, 4), New(DeriveSeed(99, 3, 4))
	for i := 0; i < 8; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("word %d: Derive %d, New(DeriveSeed) %d", i, x, y)
		}
	}
}

func TestNormQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.841344746068543, 1},  // Φ(1)
		{0.158655253931457, -1}, // Φ(-1)
		{0.977249868051821, 2},
		{0.999968328758167, 4},
	}
	for _, c := range cases {
		got := NormQuantile(c.p)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormQuantileOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.1} {
		if !math.IsNaN(NormQuantile(p)) {
			t.Errorf("NormQuantile(%v) should be NaN", p)
		}
	}
}

// Property: NormCDF(NormQuantile(p)) == p for p in (0,1).
func TestQuantileCDFRoundTrip(t *testing.T) {
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 1)
		if p <= 1e-9 || p >= 1-1e-9 {
			return true
		}
		got := NormCDF(NormQuantile(p))
		return math.Abs(got-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the quantile is symmetric: Φ⁻¹(1−p) = −Φ⁻¹(p).
func TestQuantileSymmetry(t *testing.T) {
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 1)
		if p <= 1e-9 || p >= 1-1e-9 {
			return true
		}
		return math.Abs(NormQuantile(1-p)+NormQuantile(p)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(7)
	n := 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("sample mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("sample variance = %v, want ~1", variance)
	}
}
