package circuits

import (
	"fmt"
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
)

// TestBehaviouralBatchMatchesPointwise pins the behavioural batch path to
// point-wise Evaluate: a batch of k samples gives each sample the bits, or
// the error, of its own one-sample call. The batches mix drawn ξ, the
// nominal nil ξ, wide ξ (the TOX guard and the clamps) and a malformed ξ,
// over the reference design and random designs inside the bounds.
func TestBehaviouralBatchMatchesPointwise(t *testing.T) {
	for _, p := range []problem.BatchEvaluator{NewFoldedCascode(), NewTelescopic(), NewCommonSource()} {
		rng := randx.New(12)
		designs := [][]float64{p.(interface{ ReferenceDesign() []float64 }).ReferenceDesign()}
		for len(designs) < 6 {
			designs = append(designs, problem.RandomDesign(p, rng))
		}
		for d, x := range designs {
			xis := sample.LHS{}.Draw(rng, 12, p.VarDim())
			for i := range xis[9] {
				xis[9][i] *= 6
			}
			xis[3] = nil
			xis[7] = xis[7][:p.VarDim()-1]
			perfs, errs := p.EvaluateBatch(x, xis)
			if len(perfs) != len(xis) || len(errs) != len(xis) {
				t.Fatalf("%s design %d: %d performances, %d errors for %d samples", p.Name(), d, len(perfs), len(errs), len(xis))
			}
			for s, xi := range xis {
				want, werr := p.Evaluate(x, xi)
				what := fmt.Sprintf("%s design %d sample %d", p.Name(), d, s)
				if (errs[s] == nil) != (werr == nil) || (werr != nil && errs[s].Error() != werr.Error()) {
					t.Fatalf("%s: batch error %v, point-wise %v", what, errs[s], werr)
				}
				if len(perfs[s]) != len(want) {
					t.Fatalf("%s: batch %v, point-wise %v", what, perfs[s], want)
				}
				for i := range want {
					if math.Float64bits(perfs[s][i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: perf %d = %v, point-wise %v", what, i, perfs[s][i], want[i])
					}
				}
			}
			if _, werr := p.Evaluate(x, xis[7]); werr == nil {
				t.Errorf("%s design %d: a short ξ evaluated", p.Name(), d)
			}
		}
		// A malformed design fails every sample of its batch.
		_, errs := p.EvaluateBatch(designs[0][:3], [][]float64{nil, nil})
		for s, err := range errs {
			if err == nil {
				t.Errorf("%s: short design evaluated at sample %d", p.Name(), s)
			}
		}
	}
}
