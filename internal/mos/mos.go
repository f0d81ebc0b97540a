// Package mos implements a level-1 (square-law) MOSFET model with channel
// length modulation, body effect and capacitance estimates. It is the shared
// device physics under both the behavioural amplifier evaluators in
// internal/circuits and the MNA engine in internal/spice, so the statistical
// loops and the netlist cross-checks see the same transistor.
//
// Sign convention: all Params hold positive magnitudes for both NMOS and
// PMOS. Callers of OP pass terminal voltages already folded to the NMOS-like
// frame (for PMOS: vgs = vSG, vds = vSD, vbs = vSB).
package mos

import (
	"fmt"
	"math"
)

// EpsOx is the permittivity of SiO2 in F/m.
const EpsOx = 3.45e-11

// Thermal voltage kT/q at 300 K (V).
const VThermal = 0.0259

// SubSlope is the subthreshold slope factor n; n·Vt bounds the achievable
// transconductance efficiency gm/Id ≤ 1/(n·Vt).
const SubSlope = 1.5

// VDsatFloor is the default weak/moderate-inversion saturation voltage
// floor (≈ 4·Vt): no matter how wide the device, VDsat does not drop below
// it. Technology decks may override it via Params.VDsatMin.
const VDsatFloor = 4 * VThermal

// Region identifies the DC operating region of a device.
type Region int

// Operating regions.
const (
	Cutoff Region = iota
	Triode
	Saturation
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case Cutoff:
		return "cutoff"
	case Triode:
		return "triode"
	case Saturation:
		return "saturation"
	default:
		return fmt.Sprintf("region(%d)", int(r))
	}
}

// Params is a level-1 model card. Magnitudes only; PMOS polarity is handled
// by the circuit layer.
type Params struct {
	Name     string  // model name, e.g. "nch"
	PMOS     bool    // device polarity
	VTH0     float64 // zero-bias threshold voltage magnitude (V)
	U0       float64 // low-field mobility (m²/Vs)
	TOX      float64 // gate-oxide thickness (m)
	Lambda0  float64 // channel-length modulation coefficient per µm of Leff (1/V·µm)
	Gamma    float64 // body-effect coefficient (V^1/2)
	Phi      float64 // surface potential 2φF (V)
	LD       float64 // lateral diffusion per side (m)
	WD       float64 // width reduction per side (m)
	CJ       float64 // junction area capacitance (F/m²)
	CJSW     float64 // junction sidewall capacitance (F/m)
	CGSO     float64 // gate-source overlap capacitance (F/m)
	CGDO     float64 // gate-drain overlap capacitance (F/m)
	RDiff    float64 // diffusion sheet resistance per side, normalized to 1 µm width (Ω·µm)
	LDiff    float64 // source/drain diffusion length (m), for junction areas
	VDsatMin float64 // weak-inversion VDsat floor (V); 0 means VDsatFloor
}

// vdsatFloor returns the effective weak-inversion saturation floor.
func (p *Params) vdsatFloor() float64 {
	if p.VDsatMin > 0 {
		return p.VDsatMin
	}
	return VDsatFloor
}

// Cox returns the gate-oxide capacitance per area (F/m²).
func (p *Params) Cox() float64 { return EpsOx / p.TOX }

// KP returns the transconductance parameter U0·Cox (A/V²).
func (p *Params) KP() float64 { return p.U0 * p.Cox() }

// Perturb captures one device instance's deviation from the nominal model
// card. It is produced by internal/variation from a process-variation vector
// and consumed by Params.ApplyTo.
type Perturb struct {
	DVth        float64 // additive threshold shift (V, in magnitude frame)
	U0Scale     float64 // multiplicative mobility factor (1 = nominal)
	TOXScale    float64 // multiplicative oxide-thickness factor (1 = nominal)
	DLD         float64 // additive lateral-diffusion shift (m)
	DWD         float64 // additive width-reduction shift (m)
	CJScale     float64 // junction area cap factor
	CJSWScale   float64 // junction sidewall cap factor
	RDiffScale  float64 // diffusion resistance factor
	GammaScale  float64 // body-effect factor
	CGOScale    float64 // gate overlap cap factor
	LambdaScale float64 // channel-length-modulation factor
}

// Nominal is the identity perturbation.
func Nominal() Perturb {
	return Perturb{
		U0Scale: 1, TOXScale: 1, CJScale: 1, CJSWScale: 1,
		RDiffScale: 1, GammaScale: 1, CGOScale: 1, LambdaScale: 1,
	}
}

// ApplyTo writes p with the perturbation d folded in to dst. Evaluators
// keep their perturbed cards in preallocated storage and rewrite them in
// place per sample, so nothing is copied by value or allocated. dst may be
// p itself.
func (p *Params) ApplyTo(dst *Params, d *Perturb) {
	tox := p.TOX
	*dst = *p
	dst.VTH0 += d.DVth
	dst.U0 *= d.U0Scale
	dst.TOX *= d.TOXScale
	dst.LD += d.DLD
	dst.WD += d.DWD
	dst.CJ *= d.CJScale
	dst.CJSW *= d.CJSWScale
	dst.RDiff *= d.RDiffScale
	dst.Gamma *= d.GammaScale
	if d.CGOScale != 0 {
		dst.CGSO *= d.CGOScale
		dst.CGDO *= d.CGOScale
	}
	if d.LambdaScale != 0 {
		dst.Lambda0 *= d.LambdaScale
	}
	if dst.TOX < 0.2*tox {
		dst.TOX = 0.2 * tox // guard against absurd tails
	}
}

// Device is one transistor instance: a model card plus geometry.
type Device struct {
	Params *Params
	W, L   float64 // drawn width and length (m)
	M      float64 // parallel multiplier (≥1)
}

// Weff returns the effective electrical width of one finger (m).
func (d *Device) Weff() float64 {
	w := d.W - 2*d.Params.WD
	if w < 1e-8 {
		w = 1e-8
	}
	return w
}

// Leff returns the effective electrical channel length (m).
func (d *Device) Leff() float64 {
	l := d.L - 2*d.Params.LD
	if l < 1e-8 {
		l = 1e-8
	}
	return l
}

// Beta returns the total gain factor KP·M·Weff/Leff (A/V²).
func (d *Device) Beta() float64 {
	m := d.M
	if m < 1 {
		m = 1
	}
	return d.Params.KP() * m * d.Weff() / d.Leff()
}

// Lambda returns the channel-length-modulation coefficient (1/V) for the
// device's effective length.
func (d *Device) Lambda() float64 {
	lUm := d.Leff() * 1e6
	if lUm < 1e-3 {
		lUm = 1e-3
	}
	return d.Params.Lambda0 / lUm
}

// AreaUm2 returns the drawn gate area in µm², the normalizer of
// Pelgrom-style mismatch.
func (d *Device) AreaUm2() float64 {
	m := d.M
	if m < 1 {
		m = 1
	}
	return d.W * d.L * m * 1e12
}

// OP is a DC operating point with the small-signal quantities the circuit
// layer needs.
type OP struct {
	Region Region
	ID     float64 // drain current magnitude (A)
	VTH    float64 // threshold with body effect (V)
	Vov    float64 // overdrive VGS−VTH (V)
	VDsat  float64 // saturation voltage (V)
	Gm     float64 // transconductance (S)
	Gds    float64 // output conductance (S)
	Gmb    float64 // body transconductance (S)
	Cgs    float64 // gate-source capacitance (F)
	Cgd    float64 // gate-drain capacitance (F)
	Cdb    float64 // drain-bulk junction capacitance (F)
	Csb    float64 // source-bulk junction capacitance (F)
}

// Evaluate computes the DC operating point for terminal voltages in the
// NMOS-like frame (vgs, vds, vbs with vds ≥ 0 expected; vds < 0 is folded by
// the caller via source/drain swap in the MNA engine).
func (d *Device) Evaluate(vgs, vds, vbs float64) OP {
	var op OP
	d.EvaluateTo(&op, vgs, vds, vbs)
	return op
}

// EvaluateTo is Evaluate writing into op: the DC operating point and the
// capacitance estimates.
func (d *Device) EvaluateTo(op *OP, vgs, vds, vbs float64) {
	d.EvaluateDC(op, vgs, vds, vbs)
	d.capacitances(op, vbs)
}

// EvaluateDC writes the DC fields of the operating point into op — Region,
// ID, VTH, Vov, VDsat, Gm, Gds and Gmb, bit for bit what Evaluate computes —
// and leaves the capacitances untouched. It is the form of the Newton loop,
// which stamps currents and conductances every iteration and never reads a
// capacitance.
func (d *Device) EvaluateDC(op *OP, vgs, vds, vbs float64) {
	p := d.Params
	// Body effect (vbs ≤ 0 is reverse bias in this frame).
	phi := p.Phi
	if phi < 0.1 {
		phi = 0.1
	}
	sb := phi - vbs
	if sb < 0.05 {
		sb = 0.05
	}
	op.VTH = p.VTH0 + p.Gamma*(math.Sqrt(sb)-math.Sqrt(phi))
	op.Vov = vgs - op.VTH
	beta := d.Beta()
	lam := d.Lambda()

	op.Gmb = 0
	switch {
	case op.Vov <= 0:
		op.Region = Cutoff
		op.VDsat = 0
		// Weak-inversion remnant conductances keep Newton iterations alive;
		// currents are treated as zero for performance purposes.
		op.ID = 0
		op.Gm = 0
		op.Gds = 0
	case vds < op.Vov:
		op.Region = Triode
		op.VDsat = op.Vov
		clm := 1 + lam*vds
		op.ID = beta * (op.Vov*vds - 0.5*vds*vds) * clm
		op.Gm = beta * vds * clm
		op.Gds = beta*(op.Vov-vds)*clm + beta*(op.Vov*vds-0.5*vds*vds)*lam
	default:
		op.Region = Saturation
		op.VDsat = op.Vov
		clm := 1 + lam*vds
		op.ID = 0.5 * beta * op.Vov * op.Vov * clm
		op.Gm = beta * op.Vov * clm
		op.Gds = 0.5 * beta * op.Vov * op.Vov * lam
	}
	if op.Gm > 0 && p.Gamma > 0 {
		// gmb = gm · γ / (2·sqrt(2φF − vbs))
		op.Gmb = op.Gm * p.Gamma / (2 * math.Sqrt(sb))
	}
}

// capacitances fills the capacitance estimates of op.
func (d *Device) capacitances(op *OP, vbs float64) {
	p := d.Params
	m := d.M
	if m < 1 {
		m = 1
	}
	w := d.Weff() * m
	cox := p.Cox()
	cgIntr := w * d.Leff() * cox
	switch op.Region {
	case Saturation:
		op.Cgs = (2.0/3.0)*cgIntr + p.CGSO*w
		op.Cgd = p.CGDO * w
	case Triode:
		op.Cgs = 0.5*cgIntr + p.CGSO*w
		op.Cgd = 0.5*cgIntr + p.CGDO*w
	default:
		op.Cgs = p.CGSO * w
		op.Cgd = p.CGDO * w
	}
	// Zero-bias junction estimate; adequate for pole estimation.
	ad := w * p.LDiff
	pd := 2 * (w + p.LDiff)
	op.Cdb = p.CJ*ad + p.CJSW*pd
	op.Csb = op.Cdb
	_ = vbs
}

// VgsForID returns the gate-source voltage (NMOS frame) that makes the
// device conduct id in saturation, ignoring channel-length modulation. Used
// by the behavioural bias generators (diode-connected devices).
func (d *Device) VgsForID(id, vbs float64) float64 {
	p := d.Params
	phi := p.Phi
	if phi < 0.1 {
		phi = 0.1
	}
	sb := phi - vbs
	if sb < 0.05 {
		sb = 0.05
	}
	vth := p.VTH0 + p.Gamma*(math.Sqrt(sb)-math.Sqrt(phi))
	if id <= 0 {
		return vth
	}
	return vth + math.Sqrt(2*id/d.Beta())
}

// VovForID returns the square-law saturation overdrive required to conduct
// id (the gate drive above threshold; see VDsatForID for the physical
// saturation voltage including the weak-inversion floor).
func (d *Device) VovForID(id float64) float64 {
	if id <= 0 {
		return 0
	}
	return math.Sqrt(2 * id / d.Beta())
}

// VDsatForID returns the saturation voltage at drain current id with the
// weak/moderate-inversion floor: a very wide device still needs a few Vt of
// drain headroom. Smoothly interpolates sqrt(Vov² + floor²).
func (d *Device) VDsatForID(id float64) float64 {
	vov := d.VovForID(id)
	floor := d.Params.vdsatFloor()
	return math.Sqrt(vov*vov + floor*floor)
}

// GmAt returns the transconductance at drain current id, capped by the
// weak-inversion transconductance-efficiency limit gm/Id ≤ 1/(n·Vt):
//
//	gm = 2·Id / sqrt(Vov² + (2·n·Vt)²)
//
// which recovers the square law for large Vov and the subthreshold limit
// as Vov → 0. Without this cap, a square-law optimizer could claim
// arbitrary gm at vanishing current by inflating W — the unphysical
// shortcut that would collapse the paper's power/speed trade-off.
func (d *Device) GmAt(id float64) float64 {
	if id <= 0 {
		return 0
	}
	vov := d.VovForID(id)
	lim := 2 * SubSlope * VThermal
	return 2 * id / math.Sqrt(vov*vov+lim*lim)
}

// RoAt returns the saturation output resistance at drain current id.
func (d *Device) RoAt(id float64) float64 {
	lam := d.Lambda()
	if id <= 0 || lam <= 0 {
		return math.Inf(1)
	}
	return 1 / (lam * id)
}
