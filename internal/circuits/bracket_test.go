package circuits

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
)

// bracketScenarios are the four spice scenarios, in the goldens' order.
var bracketScenarios = []func() *SpiceProblem{
	NewCommonSourceSpice,
	NewFoldedCascodeSpice,
	func() *SpiceProblem { return &NewCommonSourceTran().SpiceProblem },
	func() *SpiceProblem { return &NewFoldedCascodeTran().SpiceProblem },
}

// bracketWidths are the lane widths the fuzz target runs its groups at.
var bracketWidths = []int{1, 3, 8}

// FuzzBracketedProbeMatchesDense runs one spice scenario's design under 16
// samples, as the goldens draw them, through the testbench's lane groups
// at width 1, 3 or 8, and requires the bracketed sweep's DC gain, GBW and
// phase margin bits, and its error texts (which carry the failing
// frequency), to equal those of the dense stop-at-unity prefix on every
// lane whose DC solve succeeded.
//
// The inputs pick the scenario, the design (the reference design, or the
// first, second or third draw inside the bounds from a stream seeded with
// seed), the ξ scale (from 1 to 6 times the drawn vectors) and the width.
// The goldens draw their designs and samples from seed 35, so the seed
// corpus at scale byte 0 replays every spice case of circuits_goldens.json
// (the nominal, six-times-wide and malformed ξ included), and at 255 the
// same cases six times as wide.
func FuzzBracketedProbeMatchesDense(f *testing.F) {
	for scen := range bracketScenarios {
		for design := 0; design < 4; design++ {
			for _, scale := range []uint8{0, 255} {
				for width := range bracketWidths {
					f.Add(uint8(scen), uint8(design), uint64(35), scale, uint8(width))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, scen, design uint8, seed uint64, scale, width uint8) {
		p := bracketScenarios[int(scen)%len(bracketScenarios)]()
		k := bracketWidths[int(width)%len(bracketWidths)]
		p.SetLanes(k)
		rng := randx.New(seed)
		designs := [][]float64{p.ReferenceDesign()}
		for len(designs) < 4 {
			designs = append(designs, problem.RandomDesign(p, rng))
		}
		x := designs[int(design)%len(designs)]
		xis := sample.PMC{}.Draw(rng, 16, p.VarDim())
		xis[3] = nil
		for i := range xis[9] {
			xis[9][i] *= 6
		}
		xis[12] = xis[12][:p.VarDim()-1]
		factor := 1 + 5*float64(scale)/255
		for _, xi := range xis {
			for i := range xi {
				xi[i] *= factor
			}
		}
		tb, err := p.compile(x)
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name(), err)
		}
		tb.sizeLanes(k)
		what := fmt.Sprintf("%s design %d seed %d scale %.3g width %d", p.Name(), design, seed, factor, k)
		for g := 0; g < len(xis); g += k {
			group := xis[g:min(g+k, len(xis))]
			ops, _ := tb.solveDC(group, make([]error, len(group)))
			// The dense sweep below reuses the bracketed records' storage:
			// measure them first.
			rs, errs := tb.eng.ACBatchBracket(ops, tb.freqs, tb.probe.Node, tb.set)
			errs = slices.Clone(errs)
			type measures struct{ a0, gbw, pm float64 }
			got := make([]measures, len(group))
			for l := range group {
				if ops[l] != nil && errs[l] == nil {
					got[l].a0, got[l].gbw, got[l].pm = bodeMeasures(tb.freqs, rs[l], true)
				}
			}
			hs, denseErrs := tb.eng.ACBatchProbe(ops, tb.freqs, tb.probe, tb.set)
			for l := range group {
				if ops[l] == nil {
					continue
				}
				if fmt.Sprint(errs[l]) != fmt.Sprint(denseErrs[l]) {
					t.Fatalf("%s sample %d: bracketed sweep error %v, dense prefix %v", what, g+l, errs[l], denseErrs[l])
				}
				if errs[l] != nil {
					continue
				}
				var want measures
				want.a0, want.gbw, want.pm = bodeMeasures(tb.freqs, measure.Points{H: hs[l]}, true)
				for _, m := range [][2]float64{{got[l].a0, want.a0}, {got[l].gbw, want.gbw}, {got[l].pm, want.pm}} {
					if math.Float64bits(m[0]) != math.Float64bits(m[1]) {
						t.Fatalf("%s sample %d: bracketed (A0, GBW, PM) = %v, dense prefix %v", what, g+l, got[l], want)
					}
				}
			}
		}
	})
}
