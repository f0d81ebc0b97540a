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
	p := s.Perturb(nil, 0, 10)
	if p.DVth != 0 || p.U0Scale != 1 || p.TOXScale != 1 || p.DLD != 0 {
		t.Errorf("nil vector should be identity: %+v", p)
	}
	zero := make([]float64, s.Dim())
	p = s.Perturb(zero, 3, 10)
	if p.DVth != 0 || p.U0Scale != 1 || p.TOXScale != 1 || p.CJScale != 1 {
		t.Errorf("zero vector should be identity: %+v", p)
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
	pn := s.Perturb(xi, 0, 10)
	pp := s.Perturb(xi, 1, 10)
	if pn.DVth == 0 {
		t.Error("NMOS should see VTH0Rn")
	}
	if pp.DVth != 0 {
		t.Error("PMOS should not see VTH0Rn")
	}
}

func TestInterDieShared(t *testing.T) {
	s := space15()
	xi := make([]float64, s.Dim())
	xi[1] = 2.0 // VTH0Rn
	a := s.Perturb(xi, 0, 25)
	b := s.Perturb(xi, 2, 25) // both NMOS, same area
	if a.DVth != b.DVth {
		t.Errorf("inter-die shift should be shared: %v vs %v", a.DVth, b.DVth)
	}
}

func TestIntraDiePerDevice(t *testing.T) {
	s := space15()
	xi := make([]float64, s.Dim())
	base := len(s.Tech.Inter) // device 0 intra block
	xi[base+1] = 2.0          // device 0 VTH0 mismatch
	a := s.Perturb(xi, 0, 25)
	b := s.Perturb(xi, 2, 25)
	if a.DVth == 0 {
		t.Error("device 0 should see its own mismatch")
	}
	if b.DVth != 0 {
		t.Error("device 2 should not see device 0's mismatch")
	}
}

// Pelgrom: mismatch σ shrinks as 1/√area.
func TestAreaScaling(t *testing.T) {
	s := space15()
	xi := make([]float64, s.Dim())
	base := len(s.Tech.Inter)
	xi[base+1] = 1.0
	small := s.Perturb(xi, 0, 1).DVth
	large := s.Perturb(xi, 0, 100).DVth
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
		p := s.Perturb(xi, 0, 10)
		xi[1] = 2 * v
		p2 := s.Perturb(xi, 0, 10)
		return math.Abs(p2.DVth-2*p.DVth) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: scales stay positive for 6σ draws (model robustness).
func TestScalesStayPositive(t *testing.T) {
	s := space15()
	rng := randx.New(4)
	for trial := 0; trial < 500; trial++ {
		xi := make([]float64, s.Dim())
		for i := range xi {
			xi[i] = 6 * (rng.Float64()*2 - 1)
		}
		for dev := 0; dev < len(s.Devices); dev++ {
			p := s.Perturb(xi, dev, 5)
			if p.U0Scale <= 0 || p.TOXScale <= 0 || p.CJScale <= 0 ||
				p.CJSWScale <= 0 || p.RDiffScale <= 0 || p.GammaScale <= 0 {
				t.Fatalf("non-positive scale at trial %d: %+v", trial, p)
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
	assertPanic("bad length", func() { s.Perturb(make([]float64, 3), 0, 10) })
	assertPanic("bad device", func() { s.Perturb(make([]float64, s.Dim()), 99, 10) })
}
