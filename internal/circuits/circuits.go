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

// allNominal reports whether every vector of a batch is the nominal nil:
// such a batch leaves the deck cards as copied (the nil vector writes each
// perturbed field with the deck's own bits) and needs no Pelgrom factors.
func allNominal(xis [][]float64) bool {
	for _, xi := range xis {
		if xi != nil {
			return false
		}
	}
	return true
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
