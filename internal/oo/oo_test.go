package oo

import (
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/ocba"
)

// bernoulli fakes a candidate with a fixed true yield.
type bernoulli struct {
	p     float64
	n     int
	pass  int
	state uint64
}

func (b *bernoulli) AddSamples(n int) error {
	for i := 0; i < n; i++ {
		b.state ^= b.state << 13
		b.state ^= b.state >> 7
		b.state ^= b.state << 17
		if float64(b.state%1e9)/1e9 < b.p {
			b.pass++
		}
		b.n++
	}
	return nil
}
func (b *bernoulli) Samples() int { return b.n }
func (b *bernoulli) Yield() float64 {
	if b.n == 0 {
		return 0
	}
	return float64(b.pass) / float64(b.n)
}
func (b *bernoulli) Std() float64 {
	p := (float64(b.pass) + 1) / (float64(b.n) + 2)
	return math.Sqrt(p * (1 - p))
}

// paperManager is the Manager core builds from the paper's parameters,
// with stage-2 budget maxSims.
func paperManager(maxSims int) *Manager {
	return &Manager{N0: 15, SimAve: 35, Delta: 10, MaxSims: maxSims, Threshold: 0.97}
}

func TestEvaluatePromotesHighYield(t *testing.T) {
	m := paperManager(400)
	cands := []ocba.Candidate{
		&bernoulli{p: 1.00, state: 1}, // should reach stage 2
		&bernoulli{p: 0.60, state: 2},
		&bernoulli{p: 0.30, state: 3},
	}
	stages, err := m.Evaluate(cands)
	if err != nil {
		t.Fatal(err)
	}
	if stages[0] != Stage2 {
		t.Errorf("perfect candidate not promoted (yield %v, %d samples)",
			cands[0].Yield(), cands[0].Samples())
	}
	if cands[0].Samples() < 400 {
		t.Errorf("promoted candidate has %d samples, want ≥ 400", cands[0].Samples())
	}
	if stages[1] != Stage1 || stages[2] != Stage1 {
		t.Errorf("weak candidates promoted: %v", stages)
	}
	// Stage-1 candidates stay far below the stage-2 budget.
	if cands[2].Samples() >= 400 {
		t.Errorf("weak candidate consumed stage-2 budget: %d", cands[2].Samples())
	}
}

func TestEvaluateBudget(t *testing.T) {
	m := paperManager(500)
	cands := []ocba.Candidate{
		&bernoulli{p: 0.5, state: 4},
		&bernoulli{p: 0.4, state: 5},
		&bernoulli{p: 0.3, state: 6},
		&bernoulli{p: 0.2, state: 7},
	}
	if _, err := m.Evaluate(cands); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range cands {
		total += c.Samples()
	}
	// No promotions expected; total ≈ simAve·N within one increment.
	want := m.SimAve * len(cands)
	if total < want || total > want+m.Delta*len(cands) {
		t.Errorf("stage-1 spend = %d, want ≈ %d", total, want)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m := paperManager(500)
	stages, err := m.Evaluate(nil)
	if err != nil || len(stages) != 0 {
		t.Errorf("empty evaluate: %v, %v", stages, err)
	}
}

// The headline OO claim: correct ordinal selection with far fewer samples
// than uniform full-budget estimation.
func TestOrdinalSelectionEfficiency(t *testing.T) {
	m := paperManager(500)
	trueP := []float64{0.95, 0.85, 0.7, 0.55, 0.4, 0.3, 0.2, 0.1}
	cands := make([]ocba.Candidate, len(trueP))
	for i, p := range trueP {
		cands[i] = &bernoulli{p: p, state: uint64(100 + i)}
	}
	if _, err := m.Evaluate(cands); err != nil {
		t.Fatal(err)
	}
	// The best-by-estimate must be the true best.
	best := 0
	for i := range cands {
		if cands[i].Yield() > cands[best].Yield() {
			best = i
		}
	}
	if best != 0 {
		t.Errorf("ordinal selection picked candidate %d", best)
	}
	// Total cost must be far below uniform 500·N.
	total := 0
	for _, c := range cands {
		total += c.Samples()
	}
	if total > 500*len(cands)/2 {
		t.Errorf("OO spent %d samples; uniform would be %d", total, 500*len(cands))
	}
}

// recordingCand wraps bernoulli and records every AddSamples argument, so
// tests can assert exactly which increments the two-stage flow requests.
type recordingCand struct {
	bernoulli
	calls []int
}

func (r *recordingCand) AddSamples(n int) error {
	r.calls = append(r.calls, n)
	return r.bernoulli.AddSamples(n)
}

// TestEvaluateClampsOverBudgetPromotion is the regression for the stage-2
// increment computation: a promoted candidate arriving with more samples
// than MaxSims (a carried-over incumbent the optimizer already topped up
// past the stage-2 budget) must get a zero increment, never a negative one —
// and must still be reported as Stage2.
func TestEvaluateClampsOverBudgetPromotion(t *testing.T) {
	m := paperManager(400)
	over := &recordingCand{bernoulli: bernoulli{p: 1.0, state: 21}}
	// Arrive above the stage-2 budget with a promotable (100%) estimate.
	if err := over.bernoulli.AddSamples(450); err != nil {
		t.Fatal(err)
	}
	stages, err := m.Evaluate([]ocba.Candidate{over})
	if err != nil {
		t.Fatal(err)
	}
	if stages[0] != Stage2 {
		t.Errorf("over-budget promotable candidate staged as %v, want Stage2", stages[0])
	}
	for _, n := range over.calls {
		if n <= 0 {
			t.Errorf("Evaluate requested a non-positive increment %d", n)
		}
	}
	if got := over.Samples(); got != 450 {
		t.Errorf("candidate sample count moved from 450 to %d", got)
	}
}
