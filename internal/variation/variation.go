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
// with its Mismatch.
type Inter [2]mos.Perturb

// Inter computes the inter-die perturbation of xi for both polarities. A
// nil xi returns the nominal (identity) pair.
func (s *Space) Inter(xi []float64) Inter {
	var in Inter
	s.SetInter(&in, xi)
	return in
}

// SetInter writes Inter(xi) to in, so a batch evaluator rewrites one Inter
// per sample in place.
func (s *Space) SetInter(in *Inter, xi []float64) {
	in[0], in[1] = mos.Nominal(), mos.Nominal()
	if xi == nil {
		return
	}
	if len(xi) != s.Dim() {
		panic(fmt.Sprintf("variation: vector has %d entries, space needs %d", len(xi), s.Dim()))
	}
	for i, v := range s.Tech.Inter {
		applyInter(&in[0], v, xi[i], false)
		applyInter(&in[1], v, xi[i], true)
	}
}

// Mismatch is the design-only part of one device's intra-die (Pelgrom)
// terms: its polarity, the index of its first intra-die variable, and the
// factors that scale those variables at its gate area. A batch evaluator
// makes it once per design and applies it to every sample.
type Mismatch struct {
	pol              int
	base             int
	tox, vth, ld, wd float64
}

// Mismatch returns the intra-die terms of device dev (index into Devices)
// with gate area areaUm2 (drawn W·L·M in µm², clamped below at 0.01):
// mm.ATOX·inv, mm.AVT·inv, (mm.ALD·inv)·1e-6 and (mm.AWD·inv)·1e-6 for
// inv = 1/√area. Apply multiplies each by its variable, so the terms are
// mm.ATOX·inv·ξ and so on, evaluated left to right.
func (s *Space) Mismatch(dev int, areaUm2 float64) Mismatch {
	if dev < 0 || dev >= len(s.Devices) {
		panic(fmt.Sprintf("variation: device index %d out of range", dev))
	}
	m := Mismatch{base: len(s.Tech.Inter) + IntraPerDevice*dev}
	if s.Devices[dev].PMOS {
		m.pol = 1
	}
	area := areaUm2
	if area < 0.01 {
		area = 0.01
	}
	inv := 1 / math.Sqrt(area)
	mm := s.Tech.Mismatch
	m.tox = mm.ATOX * inv
	m.vth = mm.AVT * inv
	m.ld = mm.ALD * inv * 1e-6
	m.wd = mm.AWD * inv * 1e-6
	return m
}

// Apply writes the device's full perturbation under xi to dst: its
// polarity's entry of inter, computed from the same xi, plus its own
// intra-die terms. A nil xi writes the inter-die entry unchanged.
func (m *Mismatch) Apply(dst *mos.Perturb, inter *Inter, xi []float64) {
	*dst = inter[m.pol]
	if xi == nil {
		return
	}
	dst.TOXScale *= 1 + m.tox*xi[m.base+0]
	dst.DVth += m.vth * xi[m.base+1]
	dst.DLD += m.ld * xi[m.base+2]
	dst.DWD += m.wd * xi[m.base+3]
}

// Perturb computes the model perturbation of device dev with gate area
// areaUm2 under variation vector xi: Inter, then the device's Mismatch
// applied. Evaluators that perturb several devices under one xi call those
// directly, so the inter-die part is computed once per sample and the
// mismatch once per design. A nil xi returns the nominal (identity)
// perturbation.
func (s *Space) Perturb(xi []float64, dev int, areaUm2 float64) mos.Perturb {
	if xi == nil {
		return mos.Nominal()
	}
	inter := s.Inter(xi)
	m := s.Mismatch(dev, areaUm2)
	var p mos.Perturb
	m.Apply(&p, &inter, xi)
	return p
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
