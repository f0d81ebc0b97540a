// Package oo implements the paper's two-stage ordinal-optimization yield
// evaluation flow (section 2.3). Stage 1 treats one generation's feasible
// candidates as an ordinal optimization problem: the OCBA rule distributes
// T = simAve·Nfea samples so promising candidates are ranked reliably while
// clearly poor ones get only enough samples to keep the selection operator
// honest. Candidates whose stage-1 estimate exceeds the promotion threshold
// (97%) move to stage 2, where they are topped up to the full per-candidate
// budget so the reported yield carries reference-flow accuracy.
package oo

import (
	"github.com/eda-go/moheco/internal/ocba"
)

// Manager holds the two-stage evaluation parameters.
type Manager struct {
	// N0 is the initial per-candidate sample count (paper: 15).
	N0 int
	// SimAve is the average stage-1 budget per feasible candidate
	// (paper: 35).
	SimAve int
	// Delta is the OCBA increment per allocation round.
	Delta int
	// MaxSims is the stage-2 per-candidate budget (paper: 500 for the
	// chosen accuracy level).
	MaxSims int
	// Threshold is the stage-2 promotion yield (paper: 0.97).
	Threshold float64
	// Workers bounds the goroutines used for the OCBA rounds and the
	// stage-2 promotion top-ups (0 = GOMAXPROCS, 1 = sequential). The
	// result is identical for every worker count.
	Workers int
}

// Stage identifies which estimation stage produced a candidate's yield.
type Stage int

// Stages of the two-stage flow.
const (
	// Stage1 estimates come from the OCBA-allocated ordinal budget.
	Stage1 Stage = iota
	// Stage2 estimates carry the full per-candidate budget.
	Stage2
)

// Evaluate runs the two-stage flow over one generation's feasible
// candidates and returns each candidate's stage. The slice order matches
// cands.
func (m *Manager) Evaluate(cands []ocba.Candidate) ([]Stage, error) {
	stages := make([]Stage, len(cands))
	if len(cands) == 0 {
		return stages, nil
	}
	seq := &ocba.Sequencer{N0: m.N0, Delta: m.Delta, Workers: m.Workers}
	if _, err := seq.Run(cands, m.SimAve*len(cands)); err != nil {
		return stages, err
	}
	// Promotion: top up candidates whose ordinal estimate clears the
	// threshold; their final value is then a stage-2 estimate. The
	// promotion set is decided sequentially, then the independent top-ups
	// run on the worker pool.
	adds := make([]int, len(cands))
	for i, c := range cands {
		if c.Yield() > m.Threshold {
			// Clamp to zero: a promoted candidate may already exceed the
			// stage-2 budget (a carried-over incumbent the optimizer topped
			// up in an earlier generation), and a negative increment must
			// stay a no-op by construction here, not by courtesy of the
			// executor. Such a candidate is already stage-2 accurate.
			if add := m.MaxSims - c.Samples(); add > 0 {
				adds[i] = add
			}
			stages[i] = Stage2
		}
	}
	return stages, ocba.RunIncrements(m.Workers, cands, adds)
}
