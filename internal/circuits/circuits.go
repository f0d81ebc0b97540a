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

	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/variation"
)

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

// perturbCard rewrites dst in place as the perturbed model card of
// variation slot under xi: the deck card of the slot's polarity with the
// sample's inter-die part (inter, from space.Inter(xi), computed once per
// sample) and the slot's own intra-die terms for gate area areaUm2 folded
// in. dst keeps its Name, so callers label their cards once. A nil xi
// writes the nominal card.
//
// Evaluators keep the card and device arrays in their own frame and store
// &cards[i] there, so neither leaves the stack: storing the pointer through
// a helper struct instead moves the whole array to the heap.
func perturbCard(dst *mos.Params, space *variation.Space, inter *variation.Inter, xi []float64, slot int, areaUm2 float64) {
	d := space.Device(inter, xi, slot, areaUm2)
	name := dst.Name
	space.Tech.Model(space.Devices[slot].PMOS).ApplyTo(dst, &d)
	dst.Name = name
}

// slotCardName labels the private perturbed card of a variation slot in a
// simulator-in-the-loop netlist. The label is fixed per slot, so contexts
// set it once when they are built.
func slotCardName(slot int) string { return fmt.Sprintf("m%d", slot) }

// satCaps returns the device capacitances at a representative saturation
// operating point carrying current id.
func satCaps(d *mos.Device, id float64) mos.OP {
	vgs := d.VgsForID(id, 0)
	vds := d.VovForID(id) + 0.2
	return d.Evaluate(vgs, vds, 0)
}

// mirror models one leg of a current mirror: the diode device carries
// iBias and sets the gate line; the output device conducts at vds.
// It returns the output current.
func mirror(diode, out *mos.Device, iBias, vds float64) float64 {
	vgs := diode.VgsForID(iBias, 0)
	op := out.Evaluate(vgs, vds, 0)
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
