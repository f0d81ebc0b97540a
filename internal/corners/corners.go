// Package corners implements the classical non-statistical yield-design
// alternative the paper's §3.4 argues against: corner-based worst-case
// design, which replaces Monte-Carlo yield estimation with deterministic
// worst-case checks. The paper's claim — reproduced quantitatively by the
// experiment harness — is that it either over-designs (burns power/area to
// satisfy corners that never co-occur statistically) or mis-predicts the
// true yield.
package corners

import (
	"fmt"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/problem"
)

// Corner is one deterministic process condition: a fixed variation vector
// in the standard-normal space of the problem.
type Corner struct {
	Name string
	// Xi is the variation vector (length = problem.VarDim()).
	Xi []float64
}

// Generator builds corner sets for a problem.
type Generator struct {
	// Sigma is the corner displacement in standard deviations (typical
	// foundry practice: 3).
	Sigma float64
	// InterDim is the number of inter-die variables at the front of the
	// variation vector; corners displace only those (intra-die mismatch has
	// no meaningful "corner").
	InterDim int
}

// Classic returns the five classic global corners (TT, FF, SS, FS, SF) for
// a problem whose inter-die layout starts with the NMOS-affecting variables.
// Fast/slow device corners are approximated by displacing every inter-die
// variable by ±Sigma with a polarity pattern: in this repo's decks the
// dominant yield-relevant inter-die variables (VTH0R*, DELUO*, TOXR*)
// degrade performance in their positive direction for "slow" and improve it
// for "fast", so FF = -σ everywhere, SS = +σ everywhere, and the mixed
// corners alternate the N- and P-affecting halves.
//
// nSelector reports, per inter-die index, whether the variable affects NMOS
// devices (true) or PMOS (false); "both" variables count as NMOS.
func (g *Generator) Classic(p problem.Problem, nSelector func(i int) bool) []Corner {
	dim := p.VarDim()
	mk := func(name string, nSign, pSign float64) Corner {
		xi := make([]float64, dim)
		for i := 0; i < g.InterDim && i < dim; i++ {
			if nSelector(i) {
				xi[i] = nSign * g.Sigma
			} else {
				xi[i] = pSign * g.Sigma
			}
		}
		return Corner{Name: name, Xi: xi}
	}
	return []Corner{
		{Name: "TT", Xi: make([]float64, dim)},
		mk("FF", -1, -1),
		mk("SS", +1, +1),
		mk("FS", -1, +1),
		mk("SF", +1, -1),
	}
}

// WorstCase evaluates design x at every corner and returns the worst
// violation over all of them (0 when every corner passes every spec).
func WorstCase(p problem.Problem, x []float64, corners []Corner) (float64, error) {
	specs := p.Specs()
	worst := 0.0
	for _, c := range corners {
		perf, err := p.Evaluate(x, c.Xi)
		if err != nil {
			return 0, fmt.Errorf("corners: %s: %w", c.Name, err)
		}
		if v := constraint.TotalViolation(specs, perf); v > worst {
			worst = v
		}
	}
	return worst, nil
}
