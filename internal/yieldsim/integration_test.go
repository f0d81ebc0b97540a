package yieldsim

import (
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/sample"
)

// The stratified acceptance-sampling estimator must stay unbiased on a real
// circuit problem — the property the naive radius-skipping variant violates
// (see the package comment). We compare the AS estimate against a plain
// estimate at matched sample counts, averaged over repetitions. The design
// is telescopic's reference, whose yield (about 0.89) leaves room for a
// bias to show; at a design near 100% every estimator reads 1.
func TestAcceptanceSamplingUnbiasedOnCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison in -short mode")
	}
	p := circuits.NewTelescopic()
	x := p.ReferenceDesign()
	// Ground truth.
	ref, _, err := ReferenceWorkers(p, x, 30000, 42, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	const reps = 12
	const perRep = 600
	var asSum, plainSum float64
	var asSims, plainSims int
	for r := 0; r < reps; r++ {
		as := NewCandidate(p, x, Config{Sampler: sample.LHS{}, AcceptanceSampling: true}, nil, uint64(100+r))
		if err := as.AddSamples(perRep); err != nil {
			t.Fatal(err)
		}
		plain := NewCandidate(p, x, Config{Sampler: sample.LHS{}}, nil, uint64(100+r))
		if err := plain.AddSamples(perRep); err != nil {
			t.Fatal(err)
		}
		asSum += as.Yield()
		plainSum += plain.Yield()
		asSims += as.Sims()
		plainSims += plain.Sims()
	}
	asMean := asSum / reps
	plainMean := plainSum / reps
	// Both must be close to the reference; the AS bias must be small.
	if math.Abs(asMean-ref) > 0.01 {
		t.Errorf("AS mean %.4f deviates from reference %.4f", asMean, ref)
	}
	if math.Abs(asMean-plainMean) > 0.01 {
		t.Errorf("AS mean %.4f vs plain mean %.4f: bias too large", asMean, plainMean)
	}
	// And AS must actually save simulations.
	if float64(asSims) > 0.9*float64(plainSims) {
		t.Errorf("AS saved too little: %d vs %d sims", asSims, plainSims)
	}
}

// At a low-yield design the indicator variance is large; the estimator and
// its Std must stay consistent with binomial behaviour.
func TestEstimatorAtLowYieldDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test in -short mode")
	}
	p := circuits.NewTelescopic()
	// Shrink the stage-2 devices to hurt offset/swing yield.
	x := p.ReferenceDesign()
	x[8] *= 0.7 // W11
	ref, _, err := ReferenceWorkers(p, x, 20000, 7, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCandidate(p, x, Config{AcceptanceSampling: true}, nil, 3)
	if err := c.AddSamples(2000); err != nil {
		t.Fatal(err)
	}
	se := math.Sqrt(ref * (1 - ref) / 2000)
	if math.Abs(c.Yield()-ref) > 5*se+0.01 {
		t.Errorf("estimate %.4f vs reference %.4f (se %.4f)", c.Yield(), ref, se)
	}
	if c.Std() <= 0 || c.Std() > 0.6 {
		t.Errorf("Std = %v implausible", c.Std())
	}
}
