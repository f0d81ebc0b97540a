package ocba_test

import (
	"fmt"
	"math"

	"github.com/eda-go/moheco/internal/ocba"
	"github.com/eda-go/moheco/internal/randx"
)

// Four candidates: the allocation concentrates on the best (0.90) and its
// close competitor (0.88) rather than on the clearly inferior ones.
func ExampleAllocate() {
	means := []float64{0.90, 0.88, 0.60, 0.30}
	stds := []float64{0.10, 0.10, 0.10, 0.10}
	alloc := ocba.Allocate(means, stds, 1000)
	total := 0
	for _, n := range alloc {
		total += n
	}
	fmt.Println("allocation:", alloc)
	fmt.Println("total:", total)
	// Output:
	// allocation: [499 499 2 0]
	// total: 1000
}

// bernoulliCand is a candidate whose yield estimate comes from Bernoulli
// sampling with a hidden true yield.
type bernoulliCand struct {
	p    float64
	rng  *randx.Stream
	n    int
	pass int
}

func (b *bernoulliCand) AddSamples(n int) error {
	for i := 0; i < n; i++ {
		if b.rng.Float64() < b.p {
			b.pass++
		}
		b.n++
	}
	return nil
}

func (b *bernoulliCand) Samples() int { return b.n }

func (b *bernoulliCand) Yield() float64 {
	if b.n == 0 {
		return 0
	}
	return float64(b.pass) / float64(b.n)
}

func (b *bernoulliCand) Std() float64 {
	p := (float64(b.pass) + 1) / (float64(b.n) + 2)
	return math.Sqrt(p * (1 - p))
}

// The computing-budget-allocation idea of the paper's first stage in
// isolation: ten stochastic candidates with known true yields are ranked
// with about the same total budget, once with uniform allocation and once
// with the OCBA sequencer, and the probability of selecting the true best
// candidate is compared over many trials. OCBA concentrates samples on the
// contenders, so it picks the best more often.
func ExampleSequencer() {
	trueYields := []float64{0.93, 0.90, 0.85, 0.78, 0.70, 0.60, 0.45, 0.30, 0.20, 0.10}
	const budget = 350 // the paper's simAve(35) × 10 candidates
	const trials = 2000
	root := randx.New(7)

	run := func(useOCBA bool) (correct int, spent float64) {
		for t := 0; t < trials; t++ {
			cands := make([]ocba.Candidate, len(trueYields))
			for i, p := range trueYields {
				cands[i] = &bernoulliCand{p: p, rng: root.Derive(uint64(t), uint64(i))}
			}
			if useOCBA {
				seq := &ocba.Sequencer{N0: 15, Delta: 10}
				used, _ := seq.Run(cands, budget)
				spent += float64(used)
			} else {
				// Uniform gets a slightly larger budget than OCBA's typical
				// spend, so the comparison never favours OCBA through budget.
				const per = 42
				for _, c := range cands {
					_ = c.AddSamples(per)
					spent += per
				}
			}
			best := 0
			for i := range cands {
				if cands[i].Yield() > cands[best].Yield() {
					best = i
				}
			}
			if best == 0 {
				correct++
			}
		}
		return
	}

	uniCorrect, uniSpent := run(false)
	ocbaCorrect, ocbaSpent := run(true)
	fmt.Printf("%-20s P(correct selection) avg samples\n", "allocation")
	fmt.Printf("%-20s %19.3f %11.0f\n", "uniform", float64(uniCorrect)/trials, uniSpent/trials)
	fmt.Printf("%-20s %19.3f %11.0f\n", "OCBA (Chen 2000)", float64(ocbaCorrect)/trials, ocbaSpent/trials)
	// Output:
	// allocation           P(correct selection) avg samples
	// uniform                            0.714         420
	// OCBA (Chen 2000)                   0.758         406
}
