// Package variation maps process-variation vectors onto per-device model
// cards. A Space fixes the layout the whole optimizer relies on:
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
	"sync"

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

// Space is the variation space of one circuit in one technology, with its
// inter-die variables compiled into one program per polarity.
type Space struct {
	Tech    *pdk.Tech
	Devices []Slot
	// prog holds the NMOS and PMOS programs. They are compiled by the
	// first SetInter of a vector, so building a problem costs no more than
	// building its deck, and a Space that only sees the nominal vector
	// never compiles them.
	compiled sync.Once
	prog     [2]program
}

// New builds a Space. The device order fixes the ξ layout.
func New(tech *pdk.Tech, devices []Slot) *Space {
	return &Space{Tech: tech, Devices: devices}
}

// compile builds both polarities' programs.
func (s *Space) compile() {
	for pol := range s.prog {
		s.prog[pol] = newProgram(s.Tech, pol == 1)
	}
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

// Model returns the deck card of device dev's polarity.
func (s *Space) Model(dev int) *mos.Params { return s.Tech.Model(s.Devices[dev].PMOS) }

// The fields of one polarity's inter-die state. The shifts come first and
// start at 0, the scales start at 1.
const (
	fVth = iota
	fLD
	fWD
	fTOX // the first scale
	fU0
	fCJ
	fCJSW
	fRDiff
	fGamma
	fCGO
	fLambda
	numFields
)

// polarity says which devices an inter-die variable moves.
type polarity uint8

const (
	nOnly polarity = 1 << iota
	pOnly
	both = nOnly | pOnly
)

// targets maps each perturbation target to the field it moves and the
// polarities it moves it for.
var targets = [...]struct {
	field int
	pol   polarity
}{
	pdk.VthN: {fVth, nOnly}, pdk.VthP: {fVth, pOnly},
	pdk.U0N: {fU0, nOnly}, pdk.U0P: {fU0, pOnly},
	pdk.ToxN: {fTOX, nOnly}, pdk.ToxP: {fTOX, pOnly},
	pdk.LDBoth: {fLD, both}, pdk.WDBoth: {fWD, both},
	pdk.LDN: {fLD, nOnly}, pdk.LDP: {fLD, pOnly},
	pdk.WDN: {fWD, nOnly}, pdk.WDP: {fWD, pOnly},
	pdk.CJN: {fCJ, nOnly}, pdk.CJP: {fCJ, pOnly},
	pdk.CJSWN: {fCJSW, nOnly}, pdk.CJSWP: {fCJSW, pOnly},
	pdk.RDN: {fRDiff, nOnly}, pdk.RDP: {fRDiff, pOnly},
	pdk.GammaN: {fGamma, nOnly}, pdk.GammaP: {fGamma, pOnly},
	pdk.OverlapN: {fCGO, nOnly}, pdk.OverlapP: {fCGO, pOnly},
	pdk.LambdaN: {fLambda, nOnly}, pdk.LambdaP: {fLambda, pOnly},
}

// term is one inter-die variable's move of a field: ξ index and σ.
type term struct {
	i     int
	sigma float64
}

// program is one polarity's straight-line inter-die map: field f is moved
// by terms[start[f]:start[f+1]], in Tech.Inter order, so each field sees
// its variables' operations in the order of the variable list.
type program struct {
	deck  *mos.Params
	terms []term
	start [numFields + 1]int
}

// newProgram builds the program of one polarity of tech: it counts each
// field's terms, then places them, so a program costs one allocation.
func newProgram(tech *pdk.Tech, pmos bool) program {
	pol := nOnly
	if pmos {
		pol = pOnly
	}
	field := func(v pdk.InterVar) (int, bool) {
		if v.Target < 0 || int(v.Target) >= len(targets) {
			panic(fmt.Sprintf("variation: unknown target %d", v.Target))
		}
		t := targets[v.Target]
		return t.field, t.pol&pol != 0
	}
	p := program{deck: tech.Model(pmos)}
	for _, v := range tech.Inter {
		if f, ok := field(v); ok {
			p.start[f+1]++
		}
	}
	for f := range numFields {
		p.start[f+1] += p.start[f]
	}
	p.terms = make([]term, p.start[numFields])
	next := p.start
	for i, v := range tech.Inter {
		if f, ok := field(v); ok {
			p.terms[next[f]] = term{i, v.Sigma}
			next[f]++
		}
	}
	return p
}

// Inter is one variation vector's inter-die state for both polarities,
// NMOS at index 0 and PMOS at 1: the threshold, oxide-scale, LD and WD
// shifts each device combines with its own intra-die terms, and the card
// fields only inter-die variables move, already applied to the deck card.
// A circuit evaluator computes it once per sample with SetInter and writes
// every device's card from it with Mismatch.Write.
type Inter [2]polInter

type polInter struct {
	deck                                            *mos.Params
	dvth, toxScale, dld, dwd                        float64
	u0, cj, cjsw, rdiff, gamma, cgso, cgdo, lambda0 float64
}

// SetInter writes the inter-die state of xi to in. A nil xi writes the
// deck cards' own fields.
func (s *Space) SetInter(in *Inter, xi []float64) {
	if xi == nil {
		for pol := range in {
			in[pol] = nominal(s.Tech.Model(pol == 1))
		}
		return
	}
	if len(xi) != s.Dim() {
		panic(fmt.Sprintf("variation: vector has %d entries, space needs %d", len(xi), s.Dim()))
	}
	s.compiled.Do(s.compile)
	for pol := range in {
		s.prog[pol].run(&in[pol], xi)
	}
}

// nominal is the inter-die state of the nil vector: no shift, and the
// deck card's own fields.
func nominal(deck *mos.Params) polInter {
	return polInter{
		deck: deck, toxScale: 1,
		u0: deck.U0, cj: deck.CJ, cjsw: deck.CJSW, rdiff: deck.RDiff, gamma: deck.Gamma,
		cgso: deck.CGSO, cgdo: deck.CGDO, lambda0: deck.Lambda0,
	}
}

// run writes the polarity's inter-die state under xi to dst: each shift is
// 0 + σ·ξ + …, each scale 1·(1 + σ·ξ)·…, over the field's terms in order,
// and the deck card's fields times their scales, the overlap and
// channel-length-modulation scales only when nonzero.
func (p *program) run(dst *polInter, xi []float64) {
	var v [numFields]float64
	for f := range v {
		ts := p.terms[p.start[f]:p.start[f+1]]
		if f < fTOX {
			acc := 0.0
			for _, t := range ts {
				acc += t.sigma * xi[t.i]
			}
			v[f] = acc
			continue
		}
		acc := 1.0
		for _, t := range ts {
			acc *= 1 + t.sigma*xi[t.i]
		}
		v[f] = acc
	}
	deck := p.deck
	dst.deck = deck
	dst.dvth, dst.toxScale, dst.dld, dst.dwd = v[fVth], v[fTOX], v[fLD], v[fWD]
	dst.u0 = deck.U0 * v[fU0]
	dst.cj = deck.CJ * v[fCJ]
	dst.cjsw = deck.CJSW * v[fCJSW]
	dst.rdiff = deck.RDiff * v[fRDiff]
	dst.gamma = deck.Gamma * v[fGamma]
	dst.cgso, dst.cgdo, dst.lambda0 = deck.CGSO, deck.CGDO, deck.Lambda0
	if v[fCGO] != 0 {
		dst.cgso *= v[fCGO]
		dst.cgdo *= v[fCGO]
	}
	if v[fLambda] != 0 {
		dst.lambda0 *= v[fLambda]
	}
}

// Mismatch is the design-only part of one device's intra-die (Pelgrom)
// terms: its polarity, the index of its first intra-die variable, and the
// factors that scale those variables at its gate area. A batch evaluator
// makes it once per design and writes the device's card with it for every
// sample.
type Mismatch struct {
	pol              int
	base             int
	tox, vth, ld, wd float64
}

// Mismatch returns the intra-die terms of device dev (index into Devices)
// with gate area areaUm2 (drawn W·L·M in µm², clamped below at 0.01):
// mm.ATOX·inv, mm.AVT·inv, (mm.ALD·inv)·1e-6 and (mm.AWD·inv)·1e-6 for
// inv = 1/√area. Write multiplies each by its variable, so the terms are
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

// Write writes the perturbed fields of the device's card under xi, whose
// inter-die state in holds: the fields only inter-die variables move, from
// in, and
//
//	VTH0 = deck + (ΔVth + vth·ξ)
//	TOX  = deck · (TOXScale · (1 + tox·ξ)), at least 0.2·deck
//	LD   = deck + (ΔLD + ld·ξ),  WD = deck + (ΔWD + wd·ξ)
//
// A nil xi writes the deck card's own fields. Every other field of card,
// its Name included, is left as it is: it must already hold the deck
// card's.
func (m *Mismatch) Write(card *mos.Params, in *Inter, xi []float64) {
	p := &in[m.pol]
	deck := p.deck
	card.U0, card.CJ, card.CJSW, card.RDiff, card.Gamma = p.u0, p.cj, p.cjsw, p.rdiff, p.gamma
	card.CGSO, card.CGDO, card.Lambda0 = p.cgso, p.cgdo, p.lambda0
	if xi == nil {
		card.VTH0, card.TOX, card.LD, card.WD = deck.VTH0, deck.TOX, deck.LD, deck.WD
		return
	}
	x := xi[m.base : m.base+IntraPerDevice]
	card.VTH0 = deck.VTH0 + (p.dvth + m.vth*x[1])
	tox := deck.TOX * (p.toxScale * (1 + m.tox*x[0]))
	if tox < 0.2*deck.TOX {
		tox = 0.2 * deck.TOX // guard against absurd tails
	}
	card.TOX = tox
	card.LD = deck.LD + (p.dld + m.ld*x[2])
	card.WD = deck.WD + (p.dwd + m.wd*x[3])
}

// WriteCards writes the cards of one sample xi: the inter-die state into
// in, once, then cards[i] with mms[i].
func (s *Space) WriteCards(cards []mos.Params, mms []Mismatch, in *Inter, xi []float64) {
	s.SetInter(in, xi)
	for i := range mms {
		mms[i].Write(&cards[i], in, xi)
	}
}
