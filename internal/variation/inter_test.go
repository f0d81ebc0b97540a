package variation

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/pdk"
	"github.com/eda-go/moheco/internal/randx"
)

// perturb is one device's deviation from its deck card in declarative
// form: the shifts and scales the switch oracle below folds the variables
// into, one at a time.
type perturb struct {
	DVth, U0Scale, TOXScale, DLD, DWD                                 float64
	CJScale, CJSWScale, RDiffScale, GammaScale, CGOScale, LambdaScale float64
}

// identity is the perturbation of the nil vector.
func identity() perturb {
	return perturb{
		U0Scale: 1, TOXScale: 1, CJScale: 1, CJSWScale: 1,
		RDiffScale: 1, GammaScale: 1, CGOScale: 1, LambdaScale: 1,
	}
}

// applyInter folds one inter-die variable draw into the perturbation. It
// is the oracle for the compiled program: one case per target.
func applyInter(p *perturb, v pdk.InterVar, xi float64, pmos bool) {
	d := v.Sigma * xi
	switch v.Target {
	case pdk.VthN:
		if !pmos {
			p.DVth += d
		}
	case pdk.VthP:
		if pmos {
			p.DVth += d
		}
	case pdk.U0N:
		if !pmos {
			p.U0Scale *= 1 + d
		}
	case pdk.U0P:
		if pmos {
			p.U0Scale *= 1 + d
		}
	case pdk.ToxN:
		if !pmos {
			p.TOXScale *= 1 + d
		}
	case pdk.ToxP:
		if pmos {
			p.TOXScale *= 1 + d
		}
	case pdk.LDBoth:
		p.DLD += d
	case pdk.WDBoth:
		p.DWD += d
	case pdk.LDN:
		if !pmos {
			p.DLD += d
		}
	case pdk.LDP:
		if pmos {
			p.DLD += d
		}
	case pdk.WDN:
		if !pmos {
			p.DWD += d
		}
	case pdk.WDP:
		if pmos {
			p.DWD += d
		}
	case pdk.CJN:
		if !pmos {
			p.CJScale *= 1 + d
		}
	case pdk.CJP:
		if pmos {
			p.CJScale *= 1 + d
		}
	case pdk.CJSWN:
		if !pmos {
			p.CJSWScale *= 1 + d
		}
	case pdk.CJSWP:
		if pmos {
			p.CJSWScale *= 1 + d
		}
	case pdk.RDN:
		if !pmos {
			p.RDiffScale *= 1 + d
		}
	case pdk.RDP:
		if pmos {
			p.RDiffScale *= 1 + d
		}
	case pdk.GammaN:
		if !pmos {
			p.GammaScale *= 1 + d
		}
	case pdk.GammaP:
		if pmos {
			p.GammaScale *= 1 + d
		}
	case pdk.OverlapN:
		if !pmos {
			p.CGOScale *= 1 + d
		}
	case pdk.OverlapP:
		if pmos {
			p.CGOScale *= 1 + d
		}
	case pdk.LambdaN:
		if !pmos {
			p.LambdaScale *= 1 + d
		}
	case pdk.LambdaP:
		if pmos {
			p.LambdaScale *= 1 + d
		}
	default:
		panic(fmt.Sprintf("variation: unknown target %d", v.Target))
	}
}

// perturbPerDevice is one device's perturbation as a per-device loop:
// every call re-applies all inter-die variables through the switch before
// the device's own terms.
func perturbPerDevice(s *Space, xi []float64, dev int, areaUm2 float64) perturb {
	p := identity()
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

// applyTo is deck with the perturbation d folded in, field by field.
func applyTo(deck *mos.Params, d *perturb) mos.Params {
	c := *deck
	c.VTH0 = deck.VTH0 + d.DVth
	c.U0 = deck.U0 * d.U0Scale
	c.TOX = deck.TOX * d.TOXScale
	c.LD = deck.LD + d.DLD
	c.WD = deck.WD + d.DWD
	c.CJ = deck.CJ * d.CJScale
	c.CJSW = deck.CJSW * d.CJSWScale
	c.RDiff = deck.RDiff * d.RDiffScale
	c.Gamma = deck.Gamma * d.GammaScale
	if d.CGOScale != 0 {
		c.CGSO *= d.CGOScale
		c.CGDO *= d.CGOScale
	}
	if d.LambdaScale != 0 {
		c.Lambda0 *= d.LambdaScale
	}
	if c.TOX < 0.2*deck.TOX {
		c.TOX = 0.2 * deck.TOX
	}
	return c
}

// oracleCard is device dev's card under xi by the per-device switch loop.
func oracleCard(s *Space, xi []float64, dev int, areaUm2 float64) mos.Params {
	d := perturbPerDevice(s, xi, dev, areaUm2)
	return applyTo(s.Model(dev), &d)
}

// card is device dev's card under xi by the compiled path: the deck card,
// rewritten by its Mismatch from a fresh inter-die state.
func card(s *Space, xi []float64, dev int, areaUm2 float64) mos.Params {
	var in Inter
	s.SetInter(&in, xi)
	m := s.Mismatch(dev, areaUm2)
	c := *s.Model(dev)
	m.Write(&c, &in, xi)
	return c
}

// sameBits reports whether two cards agree bit for bit, field by field.
func sameBits(a, b mos.Params) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// spaceN90 is a 19-device 90nm space (example 2's shape).
func spaceN90() *Space {
	slots := make([]Slot, 19)
	for i := range slots {
		slots[i] = Slot{Name: "M", PMOS: i%3 == 1}
	}
	return New(pdk.N90(), slots)
}

// TestPerturbMatchesPerDeviceOracle pins the compiled path — one device's
// card alone, and the cards of every device written from one shared
// inter-die state — to the per-device switch loop bit for bit: on both
// technologies' spaces and the nil (nominal) vector.
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
			var in Inter
			s.SetInter(&in, xi)
			for dev := range s.Devices {
				area := math.Exp(4*rng.Float64() - 5) // spans the 0.01 µm² clamp
				want := oracleCard(s, xi, dev, area)
				if got := card(s, xi, dev, area); !sameBits(got, want) {
					t.Fatalf("%s trial %d dev %d: card %+v, oracle %+v", name, trial, dev, got, want)
				}
				m := s.Mismatch(dev, area)
				got := *s.Model(dev)
				if m.Write(&got, &in, xi); !sameBits(got, want) {
					t.Fatalf("%s trial %d dev %d: Inter+Mismatch %+v, oracle %+v", name, trial, dev, got, want)
				}
			}
		}
	}
}

// TestCompiledInterMatchesSwitch pins the compiled per-polarity program to
// the switch oracle on both decks at the edges of its arithmetic: ξ entries
// of ±0 and ±8, for each scale variable a ξ that makes its 1 + σ·ξ exactly
// 0 (a zero overlap or channel-length-modulation scale skips its factor),
// and a TOX draw past the 0.2× guard. Each vector writes every device's
// card over one that holds another vector's fields.
func TestCompiledInterMatchesSwitch(t *testing.T) {
	for name, s := range map[string]*Space{"c035": space15(), "n90": spaceN90()} {
		rng := randx.New(3)
		edges := []float64{0, math.Copysign(0, -1), 8, -8}
		edge := func() []float64 {
			xi := make([]float64, s.Dim())
			for i := range xi {
				xi[i] = edges[rng.Intn(len(edges))]
			}
			return xi
		}
		var xis [][]float64
		for k := 0; k < 16; k++ {
			xis = append(xis, edge())
		}
		for i, v := range s.Tech.Inter {
			if f := targets[v.Target].field; f < fTOX {
				continue
			}
			// The ξ nearest −1/σ whose 1 + σ·ξ is exactly 0.
			z := -1 / v.Sigma
			for k := 0; 1+v.Sigma*z != 0; k++ {
				if k == 64 {
					t.Fatalf("%s: no ξ zeroes 1 + %v·ξ", name, v.Sigma)
				}
				z = math.Nextafter(z, math.Inf(-int(math.Copysign(1, 1+v.Sigma*z))))
			}
			xi := edge()
			xi[i] = z
			xis = append(xis, xi)
		}
		// Oxide thinned to a tenth on both polarities: TOX falls under
		// 0.2× the deck wherever the device's own TOX draw is 0.
		thin := edge()
		for i, v := range s.Tech.Inter {
			if v.Target == pdk.ToxN || v.Target == pdk.ToxP {
				thin[i] = -0.9 / v.Sigma
			}
		}
		xis = append(xis, thin)

		var in Inter
		guarded := false
		for k, xi := range xis {
			s.SetInter(&in, xi)
			for dev := range s.Devices {
				area := []float64{0.001, 0.5, 40}[dev%3]
				want := oracleCard(s, xi, dev, area)
				m := s.Mismatch(dev, area)
				got := card(s, xis[(k+1)%len(xis)], dev, area)
				if m.Write(&got, &in, xi); !sameBits(got, want) {
					t.Fatalf("%s vector %d dev %d: card %+v, oracle %+v", name, k, dev, got, want)
				}
				if xi[len(s.Tech.Inter)+IntraPerDevice*dev] == 0 && got.TOX == 0.2*s.Model(dev).TOX {
					guarded = true
				}
			}
		}
		if !guarded {
			t.Errorf("%s: no vector tripped the TOX guard", name)
		}
	}
}

// TestInterDeviceIndexChecked keeps the device-range panic on the
// compiled path.
func TestInterDeviceIndexChecked(t *testing.T) {
	s := space15()
	defer func() {
		if recover() == nil {
			t.Error("Mismatch accepted an out-of-range index")
		}
	}()
	s.Mismatch(len(s.Devices), 10)
}
