package yieldsim

import (
	"errors"
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/sample"
)

// sphereProblem passes a sample when ‖ξ‖ < radius: an analytic yield
// benchmark whose true yield is the chi distribution CDF. With dim=2,
// P(‖ξ‖ < r) = 1 - exp(-r²/2).
type sphereProblem struct {
	radius float64
	dim    int
	fail   bool // inject evaluation errors
}

func (s *sphereProblem) Name() string { return "sphere" }
func (s *sphereProblem) Dim() int     { return 1 }
func (s *sphereProblem) Bounds() ([]float64, []float64) {
	return []float64{0}, []float64{1}
}
func (s *sphereProblem) Specs() []constraint.Spec {
	return []constraint.Spec{{Name: "margin", Sense: constraint.AtLeast, Bound: 0}}
}
func (s *sphereProblem) VarDim() int { return s.dim }
func (s *sphereProblem) Evaluate(x, xi []float64) ([]float64, error) {
	if s.fail {
		return nil, errors.New("injected failure")
	}
	if xi == nil {
		return []float64{1}, nil
	}
	r := 0.0
	for _, v := range xi {
		r += v * v
	}
	return []float64{s.radius - math.Sqrt(r)}, nil
}

func (s *sphereProblem) trueYield() float64 {
	// dim = 2 only.
	return 1 - math.Exp(-s.radius*s.radius/2)
}

func TestCandidateEstimatesKnownYield(t *testing.T) {
	p := &sphereProblem{radius: 2.0, dim: 2}
	var ctr Counter
	c := NewCandidate(p, []float64{0.5}, Config{Sampler: sample.LHS{}}, &ctr, 42)
	if err := c.AddSamples(4000); err != nil {
		t.Fatal(err)
	}
	want := p.trueYield() // ≈ 0.8647
	if math.Abs(c.Yield()-want) > 0.02 {
		t.Errorf("yield = %v, want %v ± 0.02", c.Yield(), want)
	}
	if c.Samples() != 4000 {
		t.Errorf("samples = %d", c.Samples())
	}
	if ctr.Total() != int64(c.Sims()) {
		t.Errorf("counter %d vs sims %d", ctr.Total(), c.Sims())
	}
}

func TestAcceptanceSamplingSavesSims(t *testing.T) {
	p := &sphereProblem{radius: 2.0, dim: 2}
	plain := NewCandidate(p, []float64{0.5}, Config{}, nil, 7)
	as := NewCandidate(p, []float64{0.5}, Config{AcceptanceSampling: true}, nil, 7)
	if err := plain.AddSamples(3000); err != nil {
		t.Fatal(err)
	}
	if err := as.AddSamples(3000); err != nil {
		t.Fatal(err)
	}
	if as.Sims() >= plain.Sims() {
		t.Errorf("AS did not save simulations: %d vs %d", as.Sims(), plain.Sims())
	}
	// Accuracy must not collapse: the sphere acceptance region is exactly
	// radial, so AS is unbiased here.
	if math.Abs(as.Yield()-plain.Yield()) > 0.02 {
		t.Errorf("AS yield %v deviates from plain %v", as.Yield(), plain.Yield())
	}
	// Both account the same number of samples.
	if as.Samples() != plain.Samples() {
		t.Errorf("sample accounting differs: %d vs %d", as.Samples(), plain.Samples())
	}
}

func TestCandidateDeterministicGivenSeed(t *testing.T) {
	p := &sphereProblem{radius: 1.5, dim: 2}
	a := NewCandidate(p, []float64{0.5}, Config{}, nil, 9)
	b := NewCandidate(p, []float64{0.5}, Config{}, nil, 9)
	_ = a.AddSamples(500)
	_ = b.AddSamples(200)
	_ = b.AddSamples(300) // different batching, same stream
	if a.Samples() != b.Samples() {
		t.Fatalf("sample counts differ")
	}
	// LHS batches differ when split differently, so compare same batching.
	c := NewCandidate(p, []float64{0.5}, Config{}, nil, 9)
	_ = c.AddSamples(500)
	if a.Yield() != c.Yield() {
		t.Errorf("same seed, same batching: yields differ %v vs %v", a.Yield(), c.Yield())
	}
}

func TestEnsureSamples(t *testing.T) {
	p := &sphereProblem{radius: 1.5, dim: 2}
	c := NewCandidate(p, []float64{0.5}, Config{}, nil, 3)
	if err := c.EnsureSamples(100); err != nil {
		t.Fatal(err)
	}
	if c.Samples() != 100 {
		t.Errorf("samples = %d", c.Samples())
	}
	// Idempotent.
	if err := c.EnsureSamples(50); err != nil {
		t.Fatal(err)
	}
	if c.Samples() != 100 {
		t.Errorf("EnsureSamples shrank? %d", c.Samples())
	}
}

func TestFailedEvaluationsCountAsFailures(t *testing.T) {
	p := &sphereProblem{radius: 2, dim: 2, fail: true}
	c := NewCandidate(p, []float64{0.5}, Config{}, nil, 5)
	if err := c.AddSamples(50); err != nil {
		t.Fatal(err)
	}
	if c.Yield() != 0 {
		t.Errorf("yield with broken simulator = %v, want 0", c.Yield())
	}
}

func TestStdShrinksWithSamples(t *testing.T) {
	p := &sphereProblem{radius: 1.5, dim: 2}
	c := NewCandidate(p, []float64{0.5}, Config{}, nil, 13)
	_ = c.AddSamples(10)
	s10 := c.Std()
	_ = c.AddSamples(990)
	s1000 := c.Std()
	// The Bernoulli indicator σ stays O(1); what matters for OCBA is that
	// it remains finite and positive.
	if s10 <= 0 || s1000 <= 0 {
		t.Errorf("stds must stay positive: %v, %v", s10, s1000)
	}
	if c.Yield() <= 0 || c.Yield() >= 1 {
		t.Errorf("yield = %v should be interior", c.Yield())
	}
}

func TestReferenceMatchesTrueYield(t *testing.T) {
	p := &sphereProblem{radius: 2.0, dim: 2}
	var ctr Counter
	y, sims, err := ReferenceWorkers(p, []float64{0.5}, 50000, 1, &ctr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sims != 50000 || ctr.Total() != 50000 {
		t.Errorf("sims = %d, counter = %d", sims, ctr.Total())
	}
	if math.Abs(y-p.trueYield()) > 0.006 {
		t.Errorf("reference yield = %v, want %v", y, p.trueYield())
	}
}

func TestReferenceDeterministic(t *testing.T) {
	p := &sphereProblem{radius: 1.2, dim: 2}
	a, _, err := ReferenceWorkers(p, []float64{0.5}, 10000, 77, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ReferenceWorkers(p, []float64{0.5}, 10000, 77, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("reference not deterministic: %v vs %v", a, b)
	}
}

func TestReferenceRejectsBadN(t *testing.T) {
	p := &sphereProblem{radius: 1, dim: 2}
	if _, _, err := ReferenceWorkers(p, []float64{0.5}, 0, 1, nil, 0); err == nil {
		t.Error("n=0 should error")
	}
}

var _ problem.Problem = (*sphereProblem)(nil)
