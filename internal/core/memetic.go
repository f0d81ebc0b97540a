package core

import (
	"fmt"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/nm"
	"github.com/eda-go/moheco/internal/yieldsim"
)

func init() { RegisterOptimizer(memetic{}) }

// memetic is the paper's search backend: DE/best/1/bin with Deb selection
// and occasional Nelder–Mead refinement of the incumbent (Fig. 4). It is
// pinned bit for bit against the pre-seam monolithic loop by
// TestMemeticGoldens.
type memetic struct{}

// Name implements Optimizer.
func (memetic) Name() string { return "memetic" }

// Start implements Optimizer: step 0, a random population of PopSize.
func (memetic) Start(sc *SearchContext) (Search, error) {
	pop, err := sc.InitialPopulation(sc.Opts.PopSize)
	if err != nil {
		return nil, err
	}
	return &memeticSearch{pop: pop, best: BestIndex(pop, 0), nmStallNeed: sc.Opts.StallLocal}, nil
}

// memeticSearch is a memetic run's population and its Nelder–Mead trigger
// state.
type memeticSearch struct {
	pop         []*Member
	best        int
	stallLocal  int // generations without improvement (NM trigger)
	nmStallNeed int // escalating NM trigger threshold
}

// Incumbent implements Search.
func (m *memeticSearch) Incumbent() *Member { return m.pop[m.best] }

// Round implements Search: steps 1–10 of Fig. 4.
func (m *memeticSearch) Round(sc *SearchContext) ([]*Member, bool, error) {
	o := sc.Opts
	// Steps 1–8: DE mutation and crossover around the best member,
	// evaluation, one-to-one selection under Deb's rules.
	trials, err := sc.DEGeneration(m.pop, m.best)
	if err != nil {
		return nil, false, err
	}
	// Read after selection, as the pre-seam loop did: a trial that
	// strictly beats the incumbent in the incumbent's own slot has already
	// replaced it here, so that improvement does not reset the stall
	// counts.
	prevBestFit := m.pop[m.best].Fit
	m.best = BestIndex(m.pop, m.best)
	// Critical solutions deserve accurate estimates (paper §2.3): the
	// incumbent best is the DE base vector and the reported result, so
	// it is always held at stage-2 accuracy. This also corrects lucky
	// stage-1 overestimates that would otherwise ratchet in as an
	// unbeatable incumbent.
	if m.best, err = sc.PromoteBest(m.pop, m.best); err != nil {
		return nil, false, err
	}
	best := m.pop[m.best]
	improved := constraint.Better(best.Fit, prevBestFit)
	if improved || !best.Fit.Feasible {
		m.stallLocal = 0
	} else {
		m.stallLocal++
	}

	// Steps 9–10: memetic local refinement of the best member. After an
	// unsuccessful refinement the trigger threshold escalates, so a
	// flat optimum is not probed over and over at full cost.
	if o.Method == MethodMOHECO && m.stallLocal >= m.nmStallNeed && best.Fit.Feasible {
		sc.nmTriggered()
		better, err := localSearch(sc, best)
		if err != nil {
			return nil, false, err
		}
		if better != nil && constraint.Better(better.Fit, best.Fit) {
			m.pop[m.best] = better
			improved = true
			m.nmStallNeed = o.StallLocal
		} else {
			m.nmStallNeed += o.StallLocal
		}
		m.stallLocal = 0
	}
	return trials, improved, nil
}

// localSearch runs the Nelder–Mead refinement around the best member
// (paper §2.4): each evaluation is a nominal feasibility check plus a
// full-budget yield estimate, so the operator is kept short and is only
// worth triggering when DE has stalled. A non-nil error is a simulator
// failure (a broken batch pipeline, not a failed sample) and aborts the
// optimization instead of being silently folded into the fitness.
func localSearch(sc *SearchContext, bestM *Member) (*Member, error) {
	o := sc.Opts
	type evalRec struct {
		x    []float64
		fit  constraint.Fitness
		cand *yieldsim.Candidate
	}
	// Interior simplex evaluations run at a reduced budget; only the final
	// point is verified at full accuracy. This keeps the memetic operator
	// cheap enough to pay for itself (the paper's NM budget is ~10
	// full-accuracy iterations; a 10-dimensional simplex would otherwise
	// burn that on initialization alone).
	probeSims := o.MaxSims / 3
	if probeSims < o.SimAve {
		probeSims = o.SimAve
	}
	var evals []evalRec
	var evalErr error
	obj := func(x []float64) float64 {
		if evalErr != nil {
			// The probe pipeline already failed; stop spending simulations
			// and let the caller see the recorded error.
			return 2
		}
		fit := sc.nominal(x, yieldsim.NMProbe)
		rec := evalRec{x: append([]float64(nil), x...), fit: fit}
		if !fit.Feasible {
			evals = append(evals, rec)
			return 1 + fit.Violation
		}
		// NM evaluates one point at a time, so the probe's samples get the
		// full worker pool.
		cand := sc.newCandidate(x, yieldsim.NMProbe)
		cand.SetWorkers(o.Workers)
		if err := cand.AddSamples(probeSims); err != nil {
			evalErr = fmt.Errorf("core: memetic probe at %v: %w", x, err)
			return 2
		}
		rec.cand = cand
		rec.fit.Yield = cand.Yield()
		evals = append(evals, rec)
		return -rec.fit.Yield
	}
	res := nm.Minimize(obj, bestM.X, nm.Options{
		MaxIter: o.NMIters,
		Scale:   0.02,
		Lo:      sc.Lo,
		Hi:      sc.Hi,
	})
	if evalErr != nil {
		return nil, evalErr
	}
	// Find the evaluation record matching the returned point and verify it
	// at stage-2 accuracy before offering it back to the population.
	for i := range evals {
		if sameVec(evals[i].x, res.X) {
			e := evals[i]
			if e.cand != nil {
				if err := e.cand.EnsureSamples(o.MaxSims); err != nil {
					return nil, err
				}
				e.fit.Yield = e.cand.Yield()
			}
			return &Member{X: e.x, Fit: e.fit, Cand: e.cand}, nil
		}
	}
	// Every point nm.Minimize returns must have passed through obj, which
	// records it; an unmatched point means the probe bookkeeping is broken
	// (results would silently lose the refinement), so surface it rather
	// than fold it into a quiet "no improvement".
	return nil, fmt.Errorf("core: Nelder–Mead returned point %v absent from the %d recorded probe evaluations", res.X, len(evals))
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
