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
// the feasibility-phase comment in Run); every trial it pays for lands in
// the archive as surrogate training data, so the line search starts
// informed the moment feasibility is reached.
//
// The backend proposes; the SearchContext disposes. Every proposed design
// goes through the same nominal screen → two-stage (or fixed-budget) yield
// estimation → incumbent stage-2 top-up path as the memetic backend, so
// simulation accounting, the shared counter, cancellation and the
// fixed-seed/worker-count determinism contract are inherited rather than
// re-implemented. All search-side randomness (axis choices, DE mutation)
// comes from the run RNG, so a fixed seed pins the whole trajectory.
package lineasybo

import (
	"math"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/de"
	"github.com/eda-go/moheco/internal/problem"
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

// Run implements core.Optimizer.
func (Backend) Run(sc *core.SearchContext) (*core.Result, error) {
	o := sc.Opts
	dim := len(sc.Lo)

	// --- Initialization: a small space-filling archive. The BO loop wants
	// most of the budget for guided proposals, so the warm-up is sized to
	// the dimensionality, not to the EA's population. The warm-up members
	// double as the feasibility-phase DE population (below), so its DE
	// config is validated up front.
	nInit := 2*dim + 4
	if nInit > o.PopSize {
		nInit = o.PopSize
	}
	dcfg := de.Config{NP: nInit, F: o.F, CR: o.CR}
	if err := dcfg.Validate(); err != nil {
		return nil, err
	}
	archive := make([]*core.Member, nInit)
	for i := range archive {
		archive[i] = &core.Member{X: problem.RandomDesign(sc.Problem, sc.RNG)}
	}
	if err := sc.Screen(archive); err != nil {
		return nil, err
	}
	if err := sc.Estimate(archive); err != nil {
		return nil, err
	}
	pop := append([]*core.Member(nil), archive...)
	best := 0
	for i := range archive {
		if constraint.Better(archive[i].Fit, archive[best].Fit) {
			best = i
		}
	}
	// The incumbent is the reported result and the line anchor: hold it at
	// stage-2 accuracy from the start, exactly like the memetic loop.
	var perr error
	if best, perr = sc.PromoteBest(archive, best); perr != nil {
		return nil, perr
	}

	stall := 0
	reason := "max-generations"
	gen := 0
	for gen = 1; gen <= o.MaxGenerations; gen++ {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		prevBestFit := archive[best].Fit
		var proposals []*core.Member
		if archive[best].Fit.Feasible {
			// BO round: one random axis-aligned 1-D subspace through the
			// incumbent, one guided proposal, one screen.
			axis := sc.RNG.Intn(dim)
			m := &core.Member{X: proposeOnLine(sc, archive, best, axis)}
			proposals = []*core.Member{m}
			if err := sc.Screen(proposals); err != nil {
				return nil, err
			}
			if err := sc.Estimate(proposals); err != nil {
				return nil, err
			}
			archive = append(archive, m)
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
			pbest := 0
			popX := make([][]float64, len(pop))
			for i, m := range pop {
				popX[i] = m.X
				if constraint.Better(m.Fit, pop[pbest].Fit) {
					pbest = i
				}
			}
			trialsX := de.Generation(popX, pbest, sc.Lo, sc.Hi, dcfg, sc.RNG)
			trials := make([]*core.Member, len(trialsX))
			for i, x := range trialsX {
				trials[i] = &core.Member{X: x}
			}
			if err := sc.Screen(trials); err != nil {
				return nil, err
			}
			if err := sc.Estimate(trials); err != nil {
				return nil, err
			}
			for i, tr := range trials {
				if constraint.BetterOrEqual(tr.Fit, pop[i].Fit) {
					pop[i] = tr
				}
			}
			archive = append(archive, trials...)
			proposals = trials
		}

		for i := range archive {
			if constraint.Better(archive[i].Fit, archive[best].Fit) {
				best = i
			}
		}
		if best, perr = sc.PromoteBest(archive, best); perr != nil {
			return nil, perr
		}
		improved := constraint.Better(archive[best].Fit, prevBestFit)
		switch {
		case improved:
			stall = 0
		case !archive[best].Fit.Feasible:
			stall = 0
		default:
			stall++
		}

		rec := core.GenRecord{
			Gen:           gen,
			BestYield:     archive[best].Fit.Yield,
			BestFeasible:  archive[best].Fit.Feasible,
			BestViolation: archive[best].Fit.Violation,
			CumSims:       sc.UsedSims(),
		}
		sc.SnapshotTrials(&rec, proposals)
		sc.Record(rec)

		if archive[best].Fit.Feasible && archive[best].Fit.Yield >= o.TargetYield {
			reason = "target-yield"
			break
		}
		if stall >= o.StallStop {
			reason = "stalled"
			break
		}
		if sc.BudgetExhausted() {
			reason = "budget"
			break
		}
	}
	if gen > o.MaxGenerations {
		gen = o.MaxGenerations
	}
	return sc.Finalize(archive[best], gen, reason)
}

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
// archive and the axis.
func proposeOnLine(sc *core.SearchContext, archive []*core.Member, best, axis int) []float64 {
	lo, hi := sc.Lo, sc.Hi
	start := len(archive) - maxTrain
	if start < 0 {
		start = 0
	}
	train := archive[start:]
	span := hi[axis] - lo[axis]
	xs := make([][]float64, len(train))
	ys := make([]float64, len(train))
	for i, m := range train {
		t := 0.0
		if span > 0 {
			t = (m.X[axis] - lo[axis]) / span
		}
		xs[i] = []float64{t}
		ys[i] = surrogateTarget(m)
	}
	g, err := fitGP(xs, ys, lengthscale)

	probe := append([]float64(nil), archive[best].X...)
	var grid [gridPoints][]float64
	var mu, s2 [gridPoints]float64
	if err == nil {
		for i := range grid {
			grid[i] = []float64{float64(i) / float64(gridPoints-1)}
		}
		g.predictBatch(grid[:], mu[:], s2[:])
	}
	bestVal, bestIdx := 0.0, -1
	for i := 0; i < gridPoints; i++ {
		acq := float64(i) / float64(gridPoints-1) // surrogate-free fallback: sweep the line deterministically
		if err == nil {
			acq = mu[i] + ucbBeta*math.Sqrt(s2[i])
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
