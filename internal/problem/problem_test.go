package problem

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/randx"
)

// toy is a minimal problem: pass when x[0] + xi[0] ≥ 1.
type toy struct{ fail bool }

func (t *toy) Name() string { return "toy" }
func (t *toy) Dim() int     { return 2 }
func (t *toy) Bounds() ([]float64, []float64) {
	return []float64{0, -1}, []float64{2, 1}
}
func (t *toy) Specs() []constraint.Spec {
	return []constraint.Spec{{Name: "m", Sense: constraint.AtLeast, Bound: 1}}
}
func (t *toy) VarDim() int { return 1 }
func (t *toy) Evaluate(x, xi []float64) ([]float64, error) {
	if t.fail {
		return nil, errors.New("boom")
	}
	v := x[0]
	if xi != nil {
		v += xi[0]
	}
	return []float64{v}, nil
}

func TestCheckDesign(t *testing.T) {
	p := &toy{}
	if err := CheckDesign(p, []float64{1, 0}); err != nil {
		t.Errorf("valid design rejected: %v", err)
	}
	if err := CheckDesign(p, []float64{1}); err == nil {
		t.Error("wrong dimension accepted")
	}
	if err := CheckDesign(p, []float64{3, 0}); err == nil {
		t.Error("out-of-bounds accepted")
	}
}

func TestRandomDesignProperty(t *testing.T) {
	p := &toy{}
	f := func(seed uint64) bool {
		x := RandomDesign(p, randx.New(seed))
		lo, hi := p.Bounds()
		for i := range x {
			if x[i] < lo[i] || x[i] > hi[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNominalFitness(t *testing.T) {
	p := &toy{}
	fit, perf, err := NominalFitness(p, []float64{1.5, 0})
	if err != nil || !fit.Feasible || perf[0] != 1.5 {
		t.Errorf("feasible case: %+v %v %v", fit, perf, err)
	}
	fit, _, err = NominalFitness(p, []float64{0.5, 0})
	if err != nil || fit.Feasible {
		t.Errorf("infeasible case: %+v", fit)
	}
	if math.Abs(fit.Violation-0.5) > 1e-12 {
		t.Errorf("violation = %v, want 0.5", fit.Violation)
	}
	// A broken evaluator is maximally infeasible, with the error surfaced.
	fit, _, err = NominalFitness(&toy{fail: true}, []float64{1, 0})
	if err == nil || fit.Feasible || fit.Violation < 1e8 {
		t.Errorf("broken evaluator: %+v %v", fit, err)
	}
}

func TestPassFail(t *testing.T) {
	p := &toy{}
	ok, err := PassFail(p, []float64{0.5}, []float64{0.6})
	if err != nil || !ok {
		t.Errorf("pass case: %v %v", ok, err)
	}
	ok, err = PassFail(p, []float64{0.5}, []float64{0.3})
	if err != nil || ok {
		t.Errorf("fail case: %v %v", ok, err)
	}
	if _, err := PassFail(&toy{fail: true}, []float64{1}, []float64{0}); err == nil {
		t.Error("broken evaluator should surface the error")
	}
}
