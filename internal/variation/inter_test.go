package variation

import (
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/pdk"
	"github.com/eda-go/moheco/internal/randx"
)

// perturbPerDevice is Perturb as a per-device loop: every call re-applies
// all inter-die variables before the device's own terms. It is the oracle for
// the once-per-sample Inter and once-per-design Mismatch split.
func perturbPerDevice(s *Space, xi []float64, dev int, areaUm2 float64) mos.Perturb {
	p := mos.Nominal()
	if xi == nil {
		return p
	}
	pmos := s.Devices[dev].PMOS
	for i, v := range s.Tech.Inter {
		applyInter(&p, v, xi[i], pmos)
	}
	area := areaUm2
	if area < 0.01 {
		area = 0.01
	}
	inv := 1 / math.Sqrt(area)
	mm := s.Tech.Mismatch
	base := len(s.Tech.Inter) + IntraPerDevice*dev
	p.TOXScale *= 1 + mm.ATOX*inv*xi[base+0]
	p.DVth += mm.AVT * inv * xi[base+1]
	p.DLD += mm.ALD * inv * 1e-6 * xi[base+2]
	p.DWD += mm.AWD * inv * 1e-6 * xi[base+3]
	return p
}

// spaceN90 is a 19-device 90nm space (example 2's shape).
func spaceN90() *Space {
	slots := make([]Slot, 19)
	for i := range slots {
		slots[i] = Slot{Name: "M", PMOS: i%3 == 1}
	}
	return New(pdk.N90(), slots)
}

// TestPerturbMatchesPerDeviceOracle pins Perturb, and the Inter + Mismatch
// split evaluators call directly, to the per-device loop bit for bit: on
// both technologies' spaces and the nil (nominal) vector.
func TestPerturbMatchesPerDeviceOracle(t *testing.T) {
	spaces := map[string]*Space{"c035": space15(), "n90": spaceN90()}
	for name, s := range spaces {
		rng := randx.New(17)
		for trial := 0; trial < 20; trial++ {
			var xi []float64
			if trial > 0 {
				xi = make([]float64, s.Dim())
				for i := range xi {
					xi[i] = 2 * rng.NormFloat64()
				}
			}
			inter := s.Inter(xi)
			for dev := range s.Devices {
				area := math.Exp(4*rng.Float64() - 5) // spans the 0.01 µm² clamp
				want := perturbPerDevice(s, xi, dev, area)
				if got := s.Perturb(xi, dev, area); got != want {
					t.Fatalf("%s trial %d dev %d: Perturb %+v, oracle %+v", name, trial, dev, got, want)
				}
				m := s.Mismatch(dev, area)
				var got mos.Perturb
				if m.Apply(&got, &inter, xi); got != want {
					t.Fatalf("%s trial %d dev %d: Inter+Mismatch %+v, oracle %+v", name, trial, dev, got, want)
				}
			}
		}
	}
}

// TestInterDeviceIndexChecked keeps Perturb's device-range panic on the
// split path.
func TestInterDeviceIndexChecked(t *testing.T) {
	s := space15()
	defer func() {
		if recover() == nil {
			t.Error("Mismatch accepted an out-of-range index")
		}
	}()
	s.Mismatch(len(s.Devices), 10)
}
