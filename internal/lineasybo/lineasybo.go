// Package lineasybo implements a LinEasyBO-style Bayesian-optimization
// search backend for the core.Optimizer seam: each round restricts the
// acquisition search to one random axis-aligned one-dimensional subspace
// through the incumbent, fits a tiny Gaussian process on that subspace over
// the yields the run has already paid for, and proposes the acquisition
// maximizer on the line
// (Zhang et al., "An Efficient Batch-Constrained Bayesian Optimization
// Approach for Analog Circuit Synthesis via Multiobjective Acquisition
// Ensemble" lineage; see PAPERS.md). The one-dimensional restriction is what
// makes the approach practical at analog-sizing dimensionality: the
// acquisition landscape on a line is cheap to sweep densely, and alternating
// random axes covers the space like a randomized coordinate descent.
//
// Line BO needs a feasible anchor. Until the run has one, rounds execute a
// DE/best/1/bin + Deb-selection descent over the warm-up population (the
// same move the memetic backend uses to leave the infeasible region — see
// the feasibility-phase comment in Round); every trial it pays for lands in
// the archive as surrogate training data, so the line search starts
// informed the moment feasibility is reached.
//
// The backend proposes; core disposes. core's generation loop runs the
// rounds, counts stalled ones and applies the stop rules, and every
// proposed design goes through the same nominal screen → two-stage (or
// fixed-budget) yield estimation → incumbent stage-2 top-up path as the
// memetic backend, so simulation accounting, the shared counter,
// cancellation and the fixed-seed/worker-count determinism contract are
// inherited rather than re-implemented. All search-side randomness (axis choices, DE mutation)
// comes from the run RNG, so a fixed seed pins the whole trajectory.
package lineasybo

import (
	"math"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/core"
)

func init() { core.RegisterOptimizer(Backend{}) }

// Name is the registry key of this backend.
const Name = "lineasybo"

// Tunables of the line search. Fixed constants, not Options knobs: they are
// surrogate internals, and the run remains deterministic only because they
// never vary within a run.
const (
	// gridPoints is the dense sweep resolution on the chosen line.
	gridPoints = 33
	// ucbBeta is the exploration weight of the upper-confidence-bound
	// acquisition √β·σ term.
	ucbBeta = 2.0
	// lengthscale is the SE-kernel lengthscale in normalized coordinates.
	lengthscale = 0.3
	// maxTrain caps the GP training set to the most recent observations,
	// keeping the O(n³) Cholesky a rounding error next to the simulations.
	maxTrain = 80
)

// Backend is the LinEasyBO-style optimizer. The zero value is ready to use.
type Backend struct{}

// Name implements core.Optimizer.
func (Backend) Name() string { return Name }

// Start implements core.Optimizer: a small space-filling archive. The BO
// loop wants most of the budget for guided proposals, so the warm-up is
// sized to the dimensionality, not to the EA's population. The warm-up
// members double as the feasibility-phase DE population (see Round).
func (Backend) Start(sc *core.SearchContext) (core.Search, error) {
	nInit := 2*len(sc.Lo) + 4
	if nInit > sc.Opts.PopSize {
		nInit = sc.Opts.PopSize
	}
	pop, err := sc.InitialPopulation(nInit)
	if err != nil {
		return nil, err
	}
	s := &search{archive: append([]*core.Member(nil), pop...), pop: pop}
	// The incumbent is the reported result and the line anchor: hold it at
	// stage-2 accuracy from the start, exactly like the memetic loop.
	if s.best, err = sc.PromoteBest(s.archive, core.BestIndex(s.archive, 0)); err != nil {
		return nil, err
	}
	return s, nil
}

// search is a line-BO run's state: the archive of every evaluated member
// (the surrogate's training data and the incumbent's pool), the
// feasibility-phase DE population and the line-search workspace.
type search struct {
	archive []*core.Member
	pop     []*core.Member
	best    int // index into archive
	line    lineSearch
}

// Incumbent implements core.Search.
func (s *search) Incumbent() *core.Member { return s.archive[s.best] }

// Round implements core.Search: one line proposal once the archive holds a
// feasible member, one DE generation before.
func (s *search) Round(sc *core.SearchContext) ([]*core.Member, bool, error) {
	prevBestFit := s.archive[s.best].Fit
	var evaluated []*core.Member
	if s.archive[s.best].Fit.Feasible {
		// BO round: one random axis-aligned 1-D subspace through the
		// incumbent, one guided proposal, one screen.
		axis := sc.RNG.Intn(len(sc.Lo))
		m := &core.Member{X: s.line.proposeOnLine(sc, s.archive, s.best, axis)}
		evaluated = []*core.Member{m}
		if err := sc.Evaluate(evaluated); err != nil {
			return nil, false, err
		}
		s.archive = append(s.archive, m)
	} else {
		// Feasibility phase: one guided proposal per round cannot reach
		// the feasible region in any realistic round cap — the violation
		// landscape needs coordinated multi-axis moves, and single-axis
		// sweeps or isotropic steps are mis-scaled on axes spanning
		// orders of magnitude. So until the archive holds a feasible
		// member, each round runs one DE/best/1/bin generation with Deb
		// one-to-one selection over the warm-up population — the same
		// descent the memetic backend rides out of the infeasible region
		// (difference vectors are scaled per axis by the population's
		// own spread). Every trial lands in the archive as GP training
		// data, so the line search starts informed.
		trials, err := sc.DEGeneration(s.pop, core.BestIndex(s.pop, 0))
		if err != nil {
			return nil, false, err
		}
		s.archive = append(s.archive, trials...)
		evaluated = trials
	}
	var err error
	if s.best, err = sc.PromoteBest(s.archive, core.BestIndex(s.archive, s.best)); err != nil {
		return nil, false, err
	}
	return evaluated, constraint.Better(s.archive[s.best].Fit, prevBestFit), nil
}

// lineSearch is the workspace of a run's line proposals: the surrogate and
// the training and grid buffers, reused round after round.
type lineSearch struct {
	g      gp
	xs, ys []float64
	mu, s2 [gridPoints]float64
}

// lineGrid is the sweep grid on a line, in normalized coordinates.
var lineGrid = func() (grid [gridPoints]float64) {
	for i := range grid {
		grid[i] = float64(i) / float64(gridPoints-1)
	}
	return grid
}()

// proposeOnLine fits the surrogate on the archive's coordinates along the
// chosen axis and returns the upper-confidence-bound maximizer over a dense
// grid on the axis-aligned line through the incumbent. The GP input is the
// one-dimensional subspace itself — the axis coordinate in normalized
// units — not the full design vector: at sizing dimensionality the archive
// is hopelessly sparse in the full space (every pair of points sits many
// lengthscales apart, flattening the acquisition into its prior), while
// along one axis the same archive is dense enough to carry a real signal.
// The off-axis coordinates the training points differ in act as observation
// noise on the 1-D marginal, which the GP's noise term absorbs. Ties break
// to the lowest grid index, so the proposal is a pure function of the
// archive and the axis. The returned design is the one allocation of a
// round once the workspace has grown to the training window.
func (w *lineSearch) proposeOnLine(sc *core.SearchContext, archive []*core.Member, best, axis int) []float64 {
	lo, hi := sc.Lo, sc.Hi
	start := len(archive) - maxTrain
	if start < 0 {
		start = 0
	}
	train := archive[start:]
	span := hi[axis] - lo[axis]
	w.xs, w.ys = resize(w.xs, len(train)), resize(w.ys, len(train))
	for i, m := range train {
		t := 0.0
		if span > 0 {
			t = (m.X[axis] - lo[axis]) / span
		}
		w.xs[i] = t
		w.ys[i] = surrogateTarget(m)
	}
	err := w.g.fit(w.xs, w.ys, lengthscale)

	probe := append([]float64(nil), archive[best].X...)
	if err == nil {
		w.g.predictBatch(lineGrid[:], w.mu[:], w.s2[:])
	}
	bestVal, bestIdx := 0.0, -1
	for i := 0; i < gridPoints; i++ {
		acq := float64(i) / float64(gridPoints-1) // surrogate-free fallback: sweep the line deterministically
		if err == nil {
			acq = w.mu[i] + ucbBeta*math.Sqrt(w.s2[i])
		}
		if bestIdx < 0 || acq > bestVal {
			bestVal, bestIdx = acq, i
		}
	}
	probe[axis] = lo[axis] + span*float64(bestIdx)/float64(gridPoints-1)
	return probe
}

// surrogateTarget maps a member to the GP's regression target: the
// estimated yield for feasible designs, and a squashed negative constraint
// violation (in (−1, 0]) for infeasible ones, so the surrogate pulls the
// line search toward the feasible region before there is any yield signal.
func surrogateTarget(m *core.Member) float64 {
	if m.Fit.Feasible {
		return m.Fit.Yield
	}
	return -m.Fit.Violation / (1 + m.Fit.Violation)
}
