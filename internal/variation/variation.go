// Package variation maps process-variation vectors onto per-device model
// perturbations. A Space fixes the layout the whole optimizer relies on:
//
//	ξ = [ inter-die variables (len = len(tech.Inter)) |
//	      device 0: TOX, VTH0, LD, WD | device 1: ... ]
//
// so a circuit with D transistors in a technology with I inter-die variables
// has VarDim = I + 4·D standard-normal variables — the paper's 80 for
// example 1 (20 + 15×4) and 123 for example 2 (47 + 19×4).
package variation

import (
	"fmt"
	"math"

	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/pdk"
)

// IntraPerDevice is the number of intra-die (mismatch) variables per
// transistor: TOX, VTH0, LD, WD, as in the paper.
const IntraPerDevice = 4

// Slot names one transistor of the circuit and its polarity.
type Slot struct {
	Name string
	PMOS bool
}

// Space is the variation space of one circuit in one technology.
type Space struct {
	Tech    *pdk.Tech
	Devices []Slot
}

// New builds a Space. The device order fixes the ξ layout.
func New(tech *pdk.Tech, devices []Slot) *Space {
	return &Space{Tech: tech, Devices: devices}
}

// Dim returns the total number of variation variables.
func (s *Space) Dim() int { return len(s.Tech.Inter) + IntraPerDevice*len(s.Devices) }

// CheckVector validates the length of a variation vector.
func (s *Space) CheckVector(xi []float64) error {
	if xi != nil && len(xi) != s.Dim() {
		return fmt.Errorf("variation: vector has %d entries, space needs %d", len(xi), s.Dim())
	}
	return nil
}

// Inter is the inter-die part of one variation vector's perturbation:
// the shift every NMOS (index 0) and every PMOS (index 1) device of the
// circuit shares. It depends only on the polarity, so a circuit evaluator
// computes it once per sample and adds each device's own intra-die terms
// with Device.
type Inter [2]mos.Perturb

// Inter computes the inter-die perturbation of xi for both polarities. A
// nil xi returns the nominal (identity) pair.
func (s *Space) Inter(xi []float64) Inter {
	in := Inter{mos.Nominal(), mos.Nominal()}
	if xi == nil {
		return in
	}
	if len(xi) != s.Dim() {
		panic(fmt.Sprintf("variation: vector has %d entries, space needs %d", len(xi), s.Dim()))
	}
	for i, v := range s.Tech.Inter {
		applyInter(&in[0], v, xi[i], false)
		applyInter(&in[1], v, xi[i], true)
	}
	return in
}

// Device returns the full perturbation of device dev (index into Devices)
// with gate area areaUm2 (drawn W·L·M in µm²): its polarity's entry of
// inter, computed from the same xi, plus the device's own intra-die
// (Pelgrom) terms. A nil xi returns the inter-die entry unchanged.
func (s *Space) Device(inter *Inter, xi []float64, dev int, areaUm2 float64) mos.Perturb {
	if dev < 0 || dev >= len(s.Devices) {
		panic(fmt.Sprintf("variation: device index %d out of range", dev))
	}
	pol := 0
	if s.Devices[dev].PMOS {
		pol = 1
	}
	p := inter[pol]
	if xi == nil {
		return p
	}

	// Intra-die: Pelgrom scaling by the device's own area.
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

// Perturb computes the model perturbation of device dev with gate area
// areaUm2 under variation vector xi: Inter followed by Device. Evaluators
// that perturb several devices under one xi call those two directly so the
// inter-die part is computed once. A nil xi returns the nominal (identity)
// perturbation.
func (s *Space) Perturb(xi []float64, dev int, areaUm2 float64) mos.Perturb {
	if xi == nil {
		return mos.Nominal()
	}
	inter := s.Inter(xi)
	return s.Device(&inter, xi, dev, areaUm2)
}

// applyInter folds one inter-die variable draw into the perturbation.
func applyInter(p *mos.Perturb, v pdk.InterVar, xi float64, pmos bool) {
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
