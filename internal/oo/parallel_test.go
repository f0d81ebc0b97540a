package oo

import (
	"testing"

	"github.com/eda-go/moheco/internal/ocba"
)

// TestEvaluateParallelMatchesSequential extends the OCBA regression guard
// through the two-stage flow: stage assignments, per-candidate sample
// counts and estimates must be identical for every worker count.
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	mk := func() []ocba.Candidate {
		trueP := []float64{1.0, 0.98, 0.85, 0.6, 0.4, 0.15}
		cands := make([]ocba.Candidate, len(trueP))
		for i, p := range trueP {
			cands[i] = &bernoulli{p: p, state: uint64(50 + 3*i)}
		}
		return cands
	}
	for _, workers := range []int{2, 8, 0} {
		seqC, parC := mk(), mk()
		seqM := paperManager(400)
		seqM.Workers = 1
		parM := paperManager(400)
		parM.Workers = workers
		seqStages, err := seqM.Evaluate(seqC)
		if err != nil {
			t.Fatal(err)
		}
		parStages, err := parM.Evaluate(parC)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seqC {
			if seqStages[i] != parStages[i] {
				t.Errorf("workers=%d: candidate %d stage %v vs sequential %v",
					workers, i, parStages[i], seqStages[i])
			}
			if seqC[i].Samples() != parC[i].Samples() || seqC[i].Yield() != parC[i].Yield() {
				t.Errorf("workers=%d: candidate %d (n=%d y=%v) vs sequential (n=%d y=%v)",
					workers, i, parC[i].Samples(), parC[i].Yield(), seqC[i].Samples(), seqC[i].Yield())
			}
		}
	}
}
