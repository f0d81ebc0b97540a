package yieldsim

import (
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/sample"
)

// quietBatch is sphereProblem with an allocation-free batch path: its
// results live in buffers it reuses, so an allocation count of AddSamples
// over it is AddSamples' own. It serves one batch at a time (Workers = 1).
type quietBatch struct {
	sphereProblem
	specs []constraint.Spec
	perfs [][]float64
	errs  []error
}

func newQuietBatch(dim int) *quietBatch {
	q := &quietBatch{sphereProblem: sphereProblem{radius: 3, dim: dim}}
	q.specs = q.sphereProblem.Specs()
	q.perfs = make([][]float64, simChunk)
	for i := range q.perfs {
		q.perfs[i] = make([]float64, 1)
	}
	q.errs = make([]error, simChunk)
	return q
}

func (q *quietBatch) Specs() []constraint.Spec { return q.specs }

func (q *quietBatch) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	for i, xi := range xis {
		r := 0.0
		for _, v := range xi {
			r += v * v
		}
		q.perfs[i][0] = q.radius - math.Sqrt(r)
	}
	return q.perfs[:len(xis)], q.errs[:len(xis)]
}

// TestAddSamplesAllocsIndependentOfPlan pins the pooled batch plan: with
// LHS and acceptance sampling on, a warm AddSamples allocates the same
// fixed number of objects for every sample count and variation dimension,
// plus one per chunk, PassFailBatch's indicator slice.
func TestAddSamplesAllocsIndependentOfPlan(t *testing.T) {
	base := -1.0
	for _, sh := range []struct{ n, dim int }{{8, 5}, {64, 5}, {64, 123}, {300, 80}, {15, 80}, {1000, 12}} {
		c := NewCandidate(newQuietBatch(sh.dim), []float64{0.5},
			Config{Sampler: sample.LHS{}, AcceptanceSampling: true, Workers: 1}, nil, 7)
		// The least of several counts: a pooled plan put back on one P is
		// not in reach of a Get that runs on another, and the race
		// detector drops a quarter of all Puts; either way the Get
		// allocates a fresh plan.
		own := math.Inf(1)
		for try := 0; try < 20; try++ {
			chunks := 0
			got := testing.AllocsPerRun(1, func() {
				before := c.Sims()
				if err := c.AddSamples(sh.n); err != nil {
					t.Fatal(err)
				}
				chunks = (c.Sims() - before + simChunk - 1) / simChunk
			})
			own = min(own, got-float64(chunks))
		}
		if base < 0 {
			base = own
		}
		if own != base {
			t.Errorf("AddSamples(%d) at dim %d: %v allocations beyond one per chunk, %v at the first shape", sh.n, sh.dim, own, base)
		}
	}
	t.Logf("%v allocations per batch beyond one per chunk", base)
}

// TestPooledPlanStartsClean pins that a batch never reads the bookkeeping
// a pooled plan kept from an earlier batch: after a full batch of another
// candidate has marked every chunk of a plan done, a failing batch still
// commits exactly the chunks that completed.
func TestPooledPlanStartsClean(t *testing.T) {
	for rep := 0; rep < 5; rep++ {
		warm := NewCandidate(&sphereProblem{radius: 1.5, dim: 2}, []float64{0.5}, Config{Workers: 1}, nil, 3)
		if err := warm.AddSamples(8 * simChunk); err != nil {
			t.Fatal(err)
		}
		counter := &Counter{}
		c := NewCandidate(&faultBatch{Problem: &sphereProblem{radius: 1.5, dim: 2}, failAt: 1}, []float64{0.5},
			Config{Workers: 1}, counter, 7)
		if err := c.AddSamples(4 * simChunk); err == nil {
			t.Fatal("structural batch failure did not surface an error")
		}
		checkAccounting(t, c, counter, simChunk)
	}
}
