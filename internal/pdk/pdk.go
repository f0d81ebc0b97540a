// Package pdk defines the two synthetic technology decks the paper's
// experiments run on: a 0.35µm 3.3V CMOS process (example 1) and a 90nm 1.2V
// CMOS process (example 2). Each deck carries nominal level-1 model cards
// plus a statistical model: a list of named inter-die variables (global
// process corners shared by every device of the matching polarity) and
// Pelgrom-style intra-die mismatch coefficients (per-device, scaled by
// 1/√(W·L)).
//
// The 0.35µm deck uses exactly the 20 inter-die variable names enumerated in
// the paper. The 90nm deck needs 47 inter-die variables; the paper does not
// enumerate them, so the list here extends the same naming scheme with
// BSIM-flavoured synthetic entries (documented in DESIGN.md).
package pdk

import (
	"fmt"

	"github.com/eda-go/moheco/internal/mos"
)

// Target identifies the model parameter an inter-die variable perturbs.
type Target int

// Perturbation targets. N/P suffixes restrict polarity; Both applies to
// NMOS and PMOS alike.
const (
	VthN Target = iota
	VthP
	U0N
	U0P
	ToxN
	ToxP
	LDBoth
	WDBoth
	LDN
	LDP
	WDN
	WDP
	CJN
	CJP
	CJSWN
	CJSWP
	RDN
	RDP
	GammaN
	GammaP
	OverlapN
	OverlapP
	LambdaN
	LambdaP
)

// InterVar is one named inter-die statistical variable. Its standard-normal
// draw ξ perturbs the target by Sigma·ξ (additive for Vth/LD/WD in natural
// units, relative for the multiplicative targets).
type InterVar struct {
	Name   string
	Target Target
	Sigma  float64
}

// Mismatch holds Pelgrom-style intra-die coefficients. Each per-device
// variable {TOX, VTH0, LD, WD} has σ = A/√(W·L·M in µm²).
type Mismatch struct {
	AVT  float64 // V·µm: threshold mismatch
	ATOX float64 // relative·µm: oxide-thickness mismatch
	ALD  float64 // µm·µm: lateral-diffusion mismatch
	AWD  float64 // µm·µm: width-reduction mismatch
}

// Tech is a technology deck.
type Tech struct {
	Name     string
	VDD      float64 // supply voltage (V)
	LMin     float64 // minimum drawn channel length (m)
	Temp     float64 // nominal temperature (K), informational
	NMOS     mos.Params
	PMOS     mos.Params
	Inter    []InterVar
	Mismatch Mismatch
}

// Model returns the model card for the requested polarity.
func (t *Tech) Model(pmos bool) *mos.Params {
	if pmos {
		return &t.PMOS
	}
	return &t.NMOS
}

// C035 returns the 0.35µm 3.3V deck used by example 1. Its 20 inter-die
// variables are the paper's enumerated list.
func C035() *Tech {
	t := &Tech{
		Name: "c035",
		VDD:  3.3,
		LMin: 0.35e-6,
		Temp: 300,
		NMOS: mos.Params{
			Name: "nch", PMOS: false,
			VTH0: 0.55, U0: 0.0400, TOX: 7.6e-9,
			Lambda0: 0.06, Gamma: 0.58, Phi: 0.85,
			LD: 30e-9, WD: 20e-9,
			CJ: 9.0e-4, CJSW: 2.8e-10, CGSO: 2.1e-10, CGDO: 2.1e-10,
			RDiff: 300, LDiff: 0.8e-6,
		},
		PMOS: mos.Params{
			Name: "pch", PMOS: true,
			VTH0: 0.65, U0: 0.0150, TOX: 7.6e-9,
			Lambda0: 0.08, Gamma: 0.45, Phi: 0.80,
			LD: 35e-9, WD: 25e-9,
			CJ: 1.1e-3, CJSW: 3.2e-10, CGSO: 2.3e-10, CGDO: 2.3e-10,
			RDiff: 500, LDiff: 0.8e-6,
		},
		Inter: []InterVar{
			{"TOXRn", ToxN, 0.025},
			{"VTH0Rn", VthN, 0.030},
			{"DELUON", U0N, 0.060},
			{"DELL", LDBoth, 8e-9},
			{"DELW", WDBoth, 12e-9},
			{"DELRDIFFN", RDN, 0.15},
			{"VTH0Rp", VthP, 0.033},
			{"DELUOP", U0P, 0.070},
			{"DELRDIFFP", RDP, 0.15},
			{"CJSWRn", CJSWN, 0.12},
			{"CJSWRp", CJSWP, 0.12},
			{"CJRn", CJN, 0.12},
			{"CJRp", CJP, 0.12},
			{"NPEAKn", GammaN, 0.08},
			{"NPEAKp", GammaP, 0.08},
			{"TOXRp", ToxP, 0.025},
			{"LDn", LDN, 9e-9},
			{"WDn", WDN, 9e-9},
			{"LDp", LDP, 9e-9},
			{"WDp", WDP, 9e-9},
		},
		Mismatch: Mismatch{AVT: 20e-3, ATOX: 0.015, ALD: 0.010, AWD: 0.010},
	}
	mustCount(t, 20)
	return t
}

// N90 returns the 90nm 1.2V deck used by example 2: 47 inter-die variables
// (the paper's count; names beyond the 0.35µm list are synthetic).
func N90() *Tech {
	t := &Tech{
		Name: "n90",
		VDD:  1.2,
		LMin: 0.10e-6,
		Temp: 300,
		NMOS: mos.Params{
			Name: "nch90", PMOS: false,
			VTH0: 0.32, U0: 0.0280, TOX: 2.2e-9,
			Lambda0: 0.15, Gamma: 0.35, Phi: 0.90,
			LD: 8e-9, WD: 5e-9,
			CJ: 1.2e-3, CJSW: 1.0e-10, CGSO: 3.0e-10, CGDO: 3.0e-10,
			RDiff: 200, LDiff: 0.15e-6, VDsatMin: 3 * mos.VThermal,
		},
		PMOS: mos.Params{
			Name: "pch90", PMOS: true,
			VTH0: 0.34, U0: 0.0110, TOX: 2.3e-9,
			Lambda0: 0.18, Gamma: 0.30, Phi: 0.90,
			LD: 9e-9, WD: 6e-9,
			CJ: 1.3e-3, CJSW: 1.1e-10, CGSO: 3.2e-10, CGDO: 3.2e-10,
			RDiff: 350, LDiff: 0.15e-6, VDsatMin: 3 * mos.VThermal,
		},
		Inter: []InterVar{
			// The 0.35µm-style core set (20).
			{"TOXRn", ToxN, 0.020},
			{"VTH0Rn", VthN, 0.025},
			{"DELUON", U0N, 0.050},
			{"DELL", LDBoth, 2.0e-9},
			{"DELW", WDBoth, 2.5e-9},
			{"DELRDIFFN", RDN, 0.12},
			{"VTH0Rp", VthP, 0.027},
			{"DELUOP", U0P, 0.055},
			{"DELRDIFFP", RDP, 0.12},
			{"CJSWRn", CJSWN, 0.10},
			{"CJSWRp", CJSWP, 0.10},
			{"CJRn", CJN, 0.10},
			{"CJRp", CJP, 0.10},
			{"NPEAKn", GammaN, 0.06},
			{"NPEAKp", GammaP, 0.06},
			{"TOXRp", ToxP, 0.020},
			{"LDn", LDN, 1.5e-9},
			{"WDn", WDN, 1.5e-9},
			{"LDp", LDP, 1.5e-9},
			{"WDp", WDP, 1.5e-9},
			// Synthetic BSIM-flavoured extensions (27) to reach the paper's 47.
			{"VFBRn", VthN, 0.006},
			{"VFBRp", VthP, 0.006},
			{"U1Rn", U0N, 0.020},
			{"U1Rp", U0P, 0.020},
			{"RSHn", RDN, 0.06},
			{"RSHp", RDP, 0.06},
			{"CGSORn", OverlapN, 0.08},
			{"CGSORp", OverlapP, 0.08},
			{"XJn", LDN, 1.0e-9},
			{"XJp", LDP, 1.0e-9},
			{"DXL", LDBoth, 1.0e-9},
			{"DXW", WDBoth, 1.2e-9},
			{"CJSWGn", CJSWN, 0.05},
			{"CJSWGp", CJSWP, 0.05},
			{"PBn", CJN, 0.04},
			{"PBp", CJP, 0.04},
			{"MJn", CJN, 0.03},
			{"MJp", CJP, 0.03},
			{"KETAn", VthN, 0.004},
			{"KETAp", VthP, 0.004},
			{"VOFFn", VthN, 0.005},
			{"VOFFp", VthP, 0.005},
			{"NFACTORn", GammaN, 0.03},
			{"ETA0n", VthN, 0.004},
			{"ETA0p", VthP, 0.004},
			{"PCLMn", LambdaN, 0.10},
			{"PCLMp", LambdaP, 0.10},
		},
		Mismatch: Mismatch{AVT: 4.0e-3, ATOX: 0.008, ALD: 0.004, AWD: 0.004},
	}
	mustCount(t, 47)
	return t
}

func mustCount(t *Tech, want int) {
	if len(t.Inter) != want {
		panic(fmt.Sprintf("pdk: %s has %d inter-die variables, want %d", t.Name, len(t.Inter), want))
	}
}
