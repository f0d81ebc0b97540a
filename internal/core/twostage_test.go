package core

import (
	"testing"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// twoStageOptions are the paper's two-stage parameters (n0 15, simAve 35,
// Δ 10, threshold 97%) at stage-2 budget maxSims, with acceptance sampling
// off so every accounted sample is one simulation.
func twoStageOptions(maxSims int) Options {
	o := DefaultOptions(MethodOOOnly, maxSims)
	o.AcceptanceSampling = false
	return o
}

// estimateOn runs one generation's yield estimation over feasible
// slopeProblem members at the given designs — each design's true yield is
// its value — and returns the members with the run's ledger split.
func estimateOn(t *testing.T, o Options, xs ...float64) ([]*Member, yieldsim.Split) {
	t.Helper()
	sc := newSearchContext(slopeProblem{}, o.withDefaults(), "memetic")
	ms := make([]*Member, len(xs))
	for i, x := range xs {
		ms[i] = &Member{X: []float64{x}, Fit: constraint.Fitness{Feasible: true}}
	}
	if err := sc.estimate(ms); err != nil {
		t.Fatal(err)
	}
	return ms, sc.counter.Split()
}

// samplesOf sums the members' accounted samples.
func samplesOf(ms []*Member) int64 {
	n := int64(0)
	for _, m := range ms {
		n += int64(m.Cand.Samples())
	}
	return n
}

// TestEstimatePromotesAboveThreshold: a candidate whose stage-1 estimate
// clears the threshold is topped up to the stage-2 budget, charged to
// stage 2; the weak ones stay far below it.
func TestEstimatePromotesAboveThreshold(t *testing.T) {
	ms, split := estimateOn(t, twoStageOptions(400), 1.0, 0.6, 0.3)
	if got := ms[0].Cand.Samples(); got < 400 {
		t.Errorf("perfect candidate has %d samples, want ≥ 400 (yield %v)", got, ms[0].Fit.Yield)
	}
	for _, m := range ms[1:] {
		if got := m.Cand.Samples(); got >= 400 {
			t.Errorf("weak candidate at %v consumed the stage-2 budget: %d samples", m.X[0], got)
		}
	}
	if split[yieldsim.Stage2] == 0 {
		t.Error("the promotion charged nothing to stage 2")
	}
	if got, want := split[yieldsim.Stage1]+split[yieldsim.Stage2], samplesOf(ms); got != want || split.Total() != want {
		t.Errorf("ledger %v: stage 1 + stage 2 = %d, total %d, want both %d (the samples drawn)", split, got, split.Total(), want)
	}
}

// TestEstimateStage1Budget: with no promotion, stage 1 spends T =
// SimAve·len within one OCBA increment per candidate, and the ledger
// charges all of it to stage 1.
func TestEstimateStage1Budget(t *testing.T) {
	o := twoStageOptions(500)
	ms, split := estimateOn(t, o, 0.5, 0.4, 0.3, 0.2)
	want := int64(o.SimAve * len(ms))
	if total := samplesOf(ms); total < want || total > want+int64(o.Delta*len(ms)) {
		t.Errorf("stage-1 spend = %d, want ≈ %d", total, want)
	}
	if split[yieldsim.Stage1] != samplesOf(ms) || split.Total() != split[yieldsim.Stage1] {
		t.Errorf("ledger %v, want all %d samples charged to stage 1", split, samplesOf(ms))
	}
}

// TestEstimateEmpty: a generation with no feasible member estimates
// nothing and charges nothing.
func TestEstimateEmpty(t *testing.T) {
	if _, split := estimateOn(t, twoStageOptions(500)); split.Total() != 0 {
		t.Errorf("empty generation charged %v", split)
	}
	sc := newSearchContext(slopeProblem{}, twoStageOptions(500).withDefaults(), "memetic")
	ms := []*Member{{X: []float64{0.5}, Fit: constraint.Fitness{Violation: 1}}}
	if err := sc.estimate(ms); err != nil {
		t.Fatal(err)
	}
	if ms[0].Cand != nil || sc.counter.Total() != 0 {
		t.Errorf("infeasible member got a candidate (%v) or a charge (%d)", ms[0].Cand != nil, sc.counter.Total())
	}
}

// TestEstimateClampsOverBudgetPromotion is the regression for the stage-2
// increment: stage 1 can leave a promotable candidate above the stage-2
// budget (one feasible candidate receives all of SimAve·1 = 35 samples
// against MaxSims 20). Its increment is clamped to zero, never negative:
// the candidate keeps its 35 samples and stage 2 is charged nothing.
func TestEstimateClampsOverBudgetPromotion(t *testing.T) {
	ms, split := estimateOn(t, twoStageOptions(20), 1.0)
	if ms[0].Fit.Yield <= 0.97 {
		t.Fatalf("candidate not promotable: yield %v", ms[0].Fit.Yield)
	}
	if got := ms[0].Cand.Samples(); got != 35 {
		t.Errorf("over-budget promoted candidate holds %d samples, want its stage-1 35", got)
	}
	if split[yieldsim.Stage2] != 0 || split[yieldsim.Stage1] != 35 {
		t.Errorf("ledger %v, want 35 to stage 1 and nothing to stage 2", split)
	}
}

// TestOrdinalSelectionEfficiency is the headline OO claim: correct ordinal
// selection with far fewer samples than uniform full-budget estimation.
func TestOrdinalSelectionEfficiency(t *testing.T) {
	ms, _ := estimateOn(t, twoStageOptions(500), 0.95, 0.85, 0.7, 0.55, 0.4, 0.3, 0.2, 0.1)
	if best := BestIndex(ms, 0); best != 0 {
		t.Errorf("ordinal selection picked candidate %d", best)
	}
	if total := samplesOf(ms); total > int64(500*len(ms)/2) {
		t.Errorf("OO spent %d samples; uniform would be %d", total, 500*len(ms))
	}
}

// TestEstimateWorkersInvariant extends the OCBA regression guard through
// the two-stage flow: per-candidate sample counts, estimates and the ledger
// split are identical for every worker count.
func TestEstimateWorkersInvariant(t *testing.T) {
	xs := []float64{1.0, 0.98, 0.85, 0.6, 0.4, 0.15}
	run := func(workers int) ([]*Member, yieldsim.Split) {
		o := twoStageOptions(400)
		o.Workers = workers
		return estimateOn(t, o, xs...)
	}
	seq, seqSplit := run(1)
	for _, workers := range []int{2, 8, 0} {
		par, parSplit := run(workers)
		if parSplit != seqSplit {
			t.Errorf("workers=%d: ledger %v vs sequential %v", workers, parSplit, seqSplit)
		}
		for i := range seq {
			s, p := seq[i].Cand, par[i].Cand
			if s.Samples() != p.Samples() || s.Yield() != p.Yield() {
				t.Errorf("workers=%d: candidate %d (n=%d y=%v) vs sequential (n=%d y=%v)",
					workers, i, p.Samples(), p.Yield(), s.Samples(), s.Yield())
			}
		}
	}
}
