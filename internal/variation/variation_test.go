package variation

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/eda-go/moheco/internal/pdk"
	"github.com/eda-go/moheco/internal/randx"
)

func space15() *Space {
	slots := make([]Slot, 15)
	for i := range slots {
		slots[i] = Slot{Name: "M" + string(rune('A'+i)), PMOS: i%2 == 1}
	}
	return New(pdk.C035(), slots)
}

// dVth is the threshold shift of device dev's card under xi.
func dVth(s *Space, xi []float64, dev int, areaUm2 float64) float64 {
	return card(s, xi, dev, areaUm2).VTH0 - s.Model(dev).VTH0
}

func TestPaperDimensions(t *testing.T) {
	// Example 1: 15 transistors × 4 + 20 inter-die = 80.
	if d := space15().Dim(); d != 80 {
		t.Errorf("example-1 dim = %d, want 80", d)
	}
	// Example 2: 19 transistors × 4 + 47 inter-die = 123.
	slots := make([]Slot, 19)
	for i := range slots {
		slots[i] = Slot{Name: "M", PMOS: false}
	}
	if d := New(pdk.N90(), slots).Dim(); d != 123 {
		t.Errorf("example-2 dim = %d, want 123", d)
	}
}

func TestNominalIsIdentity(t *testing.T) {
	s := space15()
	if c := card(s, nil, 0, 10); c != *s.Model(0) {
		t.Errorf("nil vector should leave the deck card: %+v", c)
	}
	zero := make([]float64, s.Dim())
	if c := card(s, zero, 3, 10); c != *s.Model(3) {
		t.Errorf("zero vector should leave the deck card: %+v", c)
	}
}

func TestCheckVector(t *testing.T) {
	s := space15()
	if err := s.CheckVector(nil); err != nil {
		t.Errorf("nil should be accepted: %v", err)
	}
	if err := s.CheckVector(make([]float64, 80)); err != nil {
		t.Errorf("exact length rejected: %v", err)
	}
	if err := s.CheckVector(make([]float64, 79)); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestPolaritySelectivity(t *testing.T) {
	s := space15()
	xi := make([]float64, s.Dim())
	// VTH0Rn is index 1 in the c035 list; device 0 is NMOS, device 1 PMOS.
	xi[1] = 3.0
	if dVth(s, xi, 0, 10) == 0 {
		t.Error("NMOS should see VTH0Rn")
	}
	if dVth(s, xi, 1, 10) != 0 {
		t.Error("PMOS should not see VTH0Rn")
	}
}

func TestInterDieShared(t *testing.T) {
	s := space15()
	xi := make([]float64, s.Dim())
	xi[1] = 2.0 // VTH0Rn
	a := dVth(s, xi, 0, 25)
	b := dVth(s, xi, 2, 25) // both NMOS, same area
	if a != b {
		t.Errorf("inter-die shift should be shared: %v vs %v", a, b)
	}
}

func TestIntraDiePerDevice(t *testing.T) {
	s := space15()
	xi := make([]float64, s.Dim())
	base := len(s.Tech.Inter) // device 0 intra block
	xi[base+1] = 2.0          // device 0 VTH0 mismatch
	if dVth(s, xi, 0, 25) == 0 {
		t.Error("device 0 should see its own mismatch")
	}
	if dVth(s, xi, 2, 25) != 0 {
		t.Error("device 2 should not see device 0's mismatch")
	}
}

// Pelgrom: mismatch σ shrinks as 1/√area.
func TestAreaScaling(t *testing.T) {
	s := space15()
	xi := make([]float64, s.Dim())
	base := len(s.Tech.Inter)
	xi[base+1] = 1.0
	small := dVth(s, xi, 0, 1)
	large := dVth(s, xi, 0, 100)
	if math.Abs(small/large-10) > 1e-9 {
		t.Errorf("area scaling ratio = %v, want 10", small/large)
	}
}

// Property: perturbation magnitude is linear in the inter-die draw.
func TestInterLinearity(t *testing.T) {
	s := space15()
	f := func(raw int8) bool {
		v := float64(raw) / 32
		xi := make([]float64, s.Dim())
		xi[1] = v
		d := dVth(s, xi, 0, 10)
		xi[1] = 2 * v
		d2 := dVth(s, xi, 0, 10)
		return math.Abs(d2-2*d) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: scaled card fields stay positive for 6σ draws (model
// robustness).
func TestScalesStayPositive(t *testing.T) {
	s := space15()
	rng := randx.New(4)
	for trial := 0; trial < 500; trial++ {
		xi := make([]float64, s.Dim())
		for i := range xi {
			xi[i] = 6 * (rng.Float64()*2 - 1)
		}
		for dev := 0; dev < len(s.Devices); dev++ {
			c := card(s, xi, dev, 5)
			if c.U0 <= 0 || c.TOX <= 0 || c.CJ <= 0 ||
				c.CJSW <= 0 || c.RDiff <= 0 || c.Gamma <= 0 {
				t.Fatalf("non-positive scaled field at trial %d: %+v", trial, c)
			}
		}
	}
}

func TestPerturbPanics(t *testing.T) {
	s := space15()
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanic("bad length", func() { card(s, make([]float64, 3), 0, 10) })
	assertPanic("bad device", func() { card(s, make([]float64, s.Dim()), 99, 10) })
}
