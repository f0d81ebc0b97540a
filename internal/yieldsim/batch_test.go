package yieldsim

import (
	"testing"

	_ "github.com/eda-go/moheco/internal/circuits" // register the built-in scenarios
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/scenario"
)

// hideBatch wraps a problem so only the plain Problem interface is visible:
// the adapter in internal/problem then takes the point-wise fallback even
// when the underlying problem implements BatchEvaluator.
func hideBatch(p problem.Problem) problem.Problem {
	return struct{ problem.Problem }{p}
}

// runsMNA reports whether p scores each sample through the MNA engine:
// the spice scenarios, which expose their testbench netlist. Every
// registered scenario is a batch evaluator, so the batch path does not
// tell them from the behavioural ones.
func runsMNA(p problem.Problem) bool {
	_, ok := p.(interface {
		Netlist(x []float64) (*netlist.Circuit, map[string]float64, error)
	})
	return ok
}

// estimate runs one incremental estimate and returns (yield, sims, samples).
func estimate(t *testing.T, p problem.Problem, x []float64, n, workers int, seed uint64) (float64, int, int) {
	t.Helper()
	counter := &Counter{}
	c := NewCandidate(p, x, Config{AcceptanceSampling: true, Workers: workers}, counter, seed)
	// Two increments, so chunk partitioning is exercised across calls too.
	if err := c.AddSamples(n / 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSamples(n - n/2); err != nil {
		t.Fatal(err)
	}
	if got := int(counter.Total()); got != c.Sims() {
		t.Fatalf("counter %d vs Sims %d", got, c.Sims())
	}
	return c.Yield(), c.Sims(), c.Samples()
}

// For every registered scenario, the batched pipeline and the point-wise
// fallback must produce bit-identical yields and simulation counts, at
// Workers=1 and Workers=8 — the end-to-end equivalence contract of the
// batch evaluation pipeline (PR 1's determinism contract extended to the
// batch partition).
func TestBatchVsPointwiseEquivalencePerScenario(t *testing.T) {
	for _, sc := range scenario.List() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			p := sc.New()
			x, ok := scenario.ReferenceDesign(p)
			if !ok {
				t.Fatalf("scenario %s has no reference design", sc.Name)
			}
			n := 300
			if runsMNA(p) {
				// Simulator-in-the-loop scenarios pay an MNA solve per
				// sample; a smaller plan still spans many chunks.
				n = 128
			}
			type est struct {
				label string
				yield float64
				sims  int
				samps int
			}
			var results []est
			for _, cfg := range []struct {
				label   string
				prob    problem.Problem
				workers int
			}{
				{"batched/w1", p, 1},
				{"batched/w8", p, 8},
				{"fallback/w1", hideBatch(p), 1},
				{"fallback/w8", hideBatch(p), 8},
			} {
				y, sims, samps := estimate(t, cfg.prob, x, n, cfg.workers, 99)
				results = append(results, est{cfg.label, y, sims, samps})
			}
			ref := results[0]
			for _, r := range results[1:] {
				if r.yield != ref.yield || r.sims != ref.sims || r.samps != ref.samps {
					t.Errorf("%s: yield=%v sims=%d samples=%d, want %s: yield=%v sims=%d samples=%d",
						r.label, r.yield, r.sims, r.samps, ref.label, ref.yield, ref.sims, ref.samps)
				}
			}
		})
	}
}

// The reference estimator must give one bit-identical answer across worker
// counts and across the batched/fallback paths as well.
func TestReferenceBatchVsPointwisePerScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("reference sweeps in -short mode")
	}
	for _, sc := range scenario.List() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			p := sc.New()
			x, _ := scenario.ReferenceDesign(p)
			n := 5000
			if runsMNA(p) {
				n = 600
			}
			type run struct {
				label string
				prob  problem.Problem
				w     int
			}
			var ref float64
			for i, r := range []run{
				{"batched/w1", p, 1},
				{"batched/w8", p, 8},
				{"fallback/w1", hideBatch(p), 1},
				{"fallback/w8", hideBatch(p), 8},
			} {
				y, sims, err := ReferenceWorkers(r.prob, x, n, 7, nil, r.w)
				if err != nil {
					t.Fatal(err)
				}
				if sims != n {
					t.Fatalf("%s: %d sims, want %d", r.label, sims, n)
				}
				if i == 0 {
					ref = y
					continue
				}
				if y != ref {
					t.Errorf("%s: yield %v, want %v", r.label, y, ref)
				}
			}
		})
	}
}

// Structural batch failures (a batch implementation returning mis-shaped
// results) must abort AddSamples with an error — the path that silently
// vanished before the batch pipeline propagated engine errors.
type misshapenBatch struct {
	problem.Problem
}

func (m misshapenBatch) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	return nil, make([]error, len(xis))
}

func TestAddSamplesSurfacesStructuralBatchError(t *testing.T) {
	inner := scenario.MustGet("commonsource").New()
	p := misshapenBatch{inner}
	x, _ := scenario.ReferenceDesign(inner)
	c := NewCandidate(p, x, Config{}, nil, 1)
	if err := c.AddSamples(64); err == nil {
		t.Fatal("mis-shaped batch did not surface an error")
	}
}
