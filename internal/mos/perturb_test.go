package mos

// The declarative form of one device's deviation from its deck card. The
// Monte-Carlo paths write perturbed cards with internal/variation's
// compiled program; this form, kept here, is what TestApplyPerturb and
// TestApplyGuardsTOX pin the card arithmetic with.

// Perturb captures one device instance's deviation from the nominal model
// card. It is consumed by Params.ApplyTo.
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

// ApplyTo writes p with the perturbation d folded in to dst. dst may be p
// itself.
func (p *Params) ApplyTo(dst *Params, d *Perturb) {
	*dst = *p
	tox := p.TOX
	dst.VTH0 = p.VTH0 + d.DVth
	dst.U0 = p.U0 * d.U0Scale
	dst.TOX = p.TOX * d.TOXScale
	dst.LD = p.LD + d.DLD
	dst.WD = p.WD + d.DWD
	dst.CJ = p.CJ * d.CJScale
	dst.CJSW = p.CJSW * d.CJSWScale
	dst.RDiff = p.RDiff * d.RDiffScale
	dst.Gamma = p.Gamma * d.GammaScale
	dst.CGSO, dst.CGDO, dst.Lambda0 = p.CGSO, p.CGDO, p.Lambda0
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
