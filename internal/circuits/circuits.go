// Package circuits provides the benchmark sizing problems of the paper's
// experiments: the fully differential folded-cascode amplifier in 0.35µm
// CMOS (example 1), the two-stage telescopic cascode amplifier in 90nm CMOS
// (example 2), and a small common-source stage used by the quickstart
// example. Each problem implements problem.Problem with a behavioural-
// physical evaluator built on the same square-law device model as the MNA
// engine: bias mirrors, cascode bias chains, node-voltage bookkeeping and
// pole estimates, with process variations entering through internal/variation
// exactly as foundry statistical decks enter HSPICE in the paper's flow.
package circuits

import (
	"fmt"
	"math"
	"slices"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/pdk"
	"github.com/eda-go/moheco/internal/variation"
)

// frame is what every problem of this package declares alike: its name
// and error prefix, its circuit's deck and variation space, its specs,
// design bounds and reference design, and the problem.Problem accessors
// over them. A spice scenario's frame is its circuit's, renamed.
type frame struct {
	name, tag string // problem name and error prefix
	tech      *pdk.Tech
	space     *variation.Space
	specs     []constraint.Spec
	lo, hi    []float64
	ref       []float64 // the reference design
}

// Name implements problem.Problem.
func (f *frame) Name() string { return f.name }

// Dim implements problem.Problem.
func (f *frame) Dim() int { return len(f.lo) }

// Bounds implements problem.Problem.
func (f *frame) Bounds() (lo, hi []float64) { return f.lo, f.hi }

// Specs implements problem.Problem.
func (f *frame) Specs() []constraint.Spec { return f.specs }

// VarDim implements problem.Problem.
func (f *frame) VarDim() int { return f.space.Dim() }

// ReferenceDesign returns a copy of the problem's reference sizing.
func (f *frame) ReferenceDesign() []float64 { return slices.Clone(f.ref) }

// checkDesign reports a design of the wrong length.
func (f *frame) checkDesign(x []float64) error {
	if len(x) != f.Dim() {
		return fmt.Errorf("%s: design has %d variables, want %d", f.tag, len(x), f.Dim())
	}
	return nil
}

// failDesign fails every sample of errs when design x has the wrong
// length, and reports whether it did.
func (f *frame) failDesign(x []float64, errs []error) bool {
	err := f.checkDesign(x)
	if err == nil {
		return false
	}
	for s := range errs {
		errs[s] = err
	}
	return true
}

// renamed returns f as the frame of a spice scenario of its circuit: the
// scenario's name, error prefix and specs.
func (f frame) renamed(name, tag string, specs []constraint.Spec) frame {
	f.name, f.tag, f.specs = name, tag, specs
	return f
}

// deckCards returns the deck card of every variation slot, by slot: the
// cards a nominal netlist stamps.
func (f *frame) deckCards() []*mos.Params {
	cards := make([]*mos.Params, len(f.space.Devices))
	for i := range cards {
		cards[i] = f.space.Model(i)
	}
	return cards
}

// deckDevice returns the transistor of variation slot slot on its deck
// card, at the slot's W and L in geom.
func (f *frame) deckDevice(geom [][2]float64, slot int) *mos.Device {
	return &mos.Device{Params: f.space.Model(slot), W: geom[slot][0], L: geom[slot][1], M: 1}
}

// startBank starts a bank of perturbed cards at slot geometry geom (W and
// L by variation slot): cards[i] becomes the deck card of slot slots[i],
// or of slot i with slots nil, and, with mms not nil, mms[i] that slot's
// Pelgrom terms at its gate area. It keeps no pointer into cards or mms, so
// a behavioural evaluator's bank stays in the evaluator's frame.
func startBank(space *variation.Space, geom [][2]float64, slots []int, cards []mos.Params, mms []variation.Mismatch) {
	for i := range cards {
		slot := i
		if slots != nil {
			slot = slots[i]
		}
		cards[i] = *space.Model(slot)
		if mms != nil {
			mms[i] = space.Mismatch(slot, geom[slot][0]*geom[slot][1]*1e12)
		}
	}
}

// mirrorRatio is the bias-branch scaling: bias diodes are 1/mirrorRatio the
// width of their mirror targets and carry 1/mirrorRatio the current.
const mirrorRatio = 8.0

// par returns the parallel combination of two resistances.
func par(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return a * b / (a + b)
}

// deg converts radians to degrees.
func deg(rad float64) float64 { return rad * 180 / math.Pi }

// atanDeg returns atan(x) in degrees.
func atanDeg(x float64) float64 { return deg(math.Atan(x)) }

// clampMin returns max(v, lo).
func clampMin(v, lo float64) float64 {
	if v < lo {
		return lo
	}
	return v
}

// perturbed returns mms for a batch with a perturbed sample, and nil for a
// batch whose every vector is the nominal nil: such a batch leaves the
// deck cards as copied (the nil vector writes each perturbed field with
// the deck's own bits) and needs no Pelgrom terms.
func perturbed(mms []variation.Mismatch, xis [][]float64) []variation.Mismatch {
	for _, xi := range xis {
		if xi != nil {
			return mms
		}
	}
	return nil
}

// slotCardName labels the private perturbed card of a variation slot in a
// simulator-in-the-loop netlist. The label is fixed per slot, so contexts
// set it once when they are built.
func slotCardName(slot int) string { return fmt.Sprintf("m%d", slot) }

// satCaps writes to op the device's operating point, capacitances
// included, at a representative saturation point carrying current id.
func satCaps(op *mos.OP, d *mos.Device, id float64) {
	vgs := d.VgsForID(id, 0)
	vds := d.VovForID(id) + 0.2
	d.EvaluateTo(op, vgs, vds, 0)
}

// mirror models one leg of a current mirror: the diode device carries
// iBias and sets the gate line; the output device conducts at vds.
// It returns the output current.
func mirror(diode, out *mos.Device, iBias, vds float64) float64 {
	vgs := diode.VgsForID(iBias, 0)
	var op mos.OP
	out.EvaluateDC(&op, vgs, vds, 0)
	return op.ID
}

// gmDegenerated applies source-resistance degeneration from the diffusion
// resistance of the card: Rs = RDiff/W[µm].
func gmDegenerated(d *mos.Device, gm float64) float64 {
	if d.Params.RDiff <= 0 {
		return gm
	}
	wUm := d.W * d.M * 1e6
	if wUm < 0.1 {
		wUm = 0.1
	}
	rs := d.Params.RDiff / wUm
	return gm / (1 + gm*rs)
}

// minOf returns the smallest of the values.
func minOf(vs ...float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		if v < m {
			m = v
		}
	}
	return m
}
