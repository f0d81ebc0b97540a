package core

import (
	"context"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/engine"
	"github.com/eda-go/moheco/internal/ocba"
	"github.com/eda-go/moheco/internal/oo"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// Member is one population/archive slot a backend tracks: a design vector,
// its constraint fitness, and — once the design is feasible and estimated —
// the Monte-Carlo candidate carrying its yield samples.
type Member struct {
	X    []float64
	Fit  constraint.Fitness
	Cand *yieldsim.Candidate // nil while infeasible or unestimated
}

// SearchContext is the estimation half of an optimization run: the problem
// and bounds, the run RNG, the candidate factory, the nominal screen, the
// method-specific yield estimator, the stage-2 top-up and the shared
// simulation counter. Backends consume it so that budget accounting,
// determinism (fixed seed ⇒ bit-identical, Workers=1 vs N), cancellation
// and per-generation records are inherited rather than re-implemented.
type SearchContext struct {
	// Problem is the workload under optimization.
	Problem problem.Problem
	// Opts is the run configuration with defaults applied.
	Opts Options
	// Lo, Hi are the design-space bounds.
	Lo, Hi []float64
	// RNG is the run's sequential random stream. Backends draw all their
	// search-side randomness from it (candidates own derived private
	// streams), so a fixed seed pins the whole run.
	RNG *randx.Stream

	counter    *yieldsim.Counter
	simBase    int64
	ycfg       yieldsim.Config
	manager    *oo.Manager
	candSeq    uint64
	backend    string
	history    []GenRecord
	nmTriggers int
}

func newSearchContext(p problem.Problem, o Options, backend string) *SearchContext {
	lo, hi := p.Bounds()
	counter := o.Counter
	if counter == nil {
		counter = &yieldsim.Counter{}
	}
	// Candidates are created with sequential batches; each evaluation
	// path retunes them via SetWorkers — the population estimate splits
	// the pool between its cross-candidate fan-out and the candidates'
	// own batches (engine.Split), while single-candidate paths (the best
	// member's stage-2 top-up, the Nelder–Mead probes) take the full
	// pool. Nesting two full-width pools would multiply the goroutine
	// count without adding throughput.
	return &SearchContext{
		Problem: p,
		Opts:    o,
		Lo:      lo,
		Hi:      hi,
		RNG:     randx.New(o.Seed),
		counter: counter,
		// A host-shared counter may start non-zero; per-run accounting
		// (GenRecord.CumSims, Result.TotalSims, SimBudget) is relative
		// to this base.
		simBase: counter.Total(),
		ycfg: yieldsim.Config{
			Sampler:            o.Sampler,
			AcceptanceSampling: o.AcceptanceSampling,
			Workers:            1,
			Ctx:                o.Ctx,
		},
		manager: &oo.Manager{
			N0: o.N0, SimAve: o.SimAve, Delta: o.Delta,
			MaxSims: o.MaxSims, Threshold: o.Threshold,
			Workers: o.Workers,
		},
		backend: backend,
	}
}

// NewCandidate builds the yield candidate for a design. Each candidate owns
// a private random stream derived from the run seed and a creation sequence
// number, so estimates are independent of worker scheduling — but the
// creation ORDER matters: backends must create candidates in a
// deterministic sequence.
func (sc *SearchContext) NewCandidate(x []float64) *yieldsim.Candidate {
	sc.candSeq++
	return sc.newCandidateAt(x, sc.candSeq)
}

func (sc *SearchContext) newCandidateAt(x []float64, seq uint64) *yieldsim.Candidate {
	return yieldsim.NewCandidate(sc.Problem, x, sc.ycfg, sc.counter,
		randx.DeriveSeed(sc.Opts.Seed, 0x5eed, seq))
}

// Nominal evaluates a design at the nominal process point and returns its
// constraint fitness; the check is accounted as one simulator call.
func (sc *SearchContext) Nominal(x []float64) constraint.Fitness {
	fit, _, _ := problem.NominalFitness(sc.Problem, x)
	sc.counter.Add(1)
	return fit
}

// Screen computes every member's nominal fitness on the worker pool: the
// checks are independent and the simulation counter is atomic.
func (sc *SearchContext) Screen(ms []*Member) error {
	return engine.ForEachNCtx(sc.Opts.Ctx, sc.Opts.Workers, len(ms), func(i int) error {
		ms[i].Fit = sc.Nominal(ms[i].X)
		return nil
	})
}

// Estimate runs the configured method's yield estimation over the feasible
// members: fixed per-candidate budgets for MethodFixedBudget, the two-stage
// OO flow (n0 warm-up, OCBA allocation rounds, threshold promotion to
// stage 2) otherwise. Candidates are created here, in member order.
func (sc *SearchContext) Estimate(ms []*Member) error {
	o := sc.Opts
	feas := make([]*Member, 0, len(ms))
	for _, m := range ms {
		if m.Fit.Feasible {
			feas = append(feas, m)
		}
	}
	if len(feas) == 0 {
		return nil
	}
	for _, m := range feas {
		m.Cand = sc.NewCandidate(m.X)
	}
	// Split the pool between the cross-candidate fan-out and each
	// candidate's own sample batches. This helps the paths whose
	// batches clear yieldsim's parallel threshold — fixed-budget
	// estimation and large stage-2 promotions with few feasible
	// candidates; small stage-1 batches (n0 warm-ups, OCBA
	// increments) stay sequential inside each candidate regardless,
	// so sparse-feasible OO generations remain bounded by
	// SimAve·len(feas) sequential sims.
	inner := engine.Split(o.Workers, len(feas))
	for _, m := range feas {
		m.Cand.SetWorkers(inner)
	}
	switch o.Method {
	case MethodFixedBudget:
		// Candidates sample independent streams: evaluate in parallel.
		if err := sampleAll(o.Ctx, feas, o.Workers, o.FixedSims); err != nil {
			return err
		}
	default:
		// The initial n0 samples per candidate are independent; the
		// OCBA rounds that follow parallelize within each round.
		if err := sampleAll(o.Ctx, feas, o.Workers, o.N0); err != nil {
			return err
		}
		group := make([]ocba.Candidate, len(feas))
		for i, m := range feas {
			group[i] = m.Cand
		}
		if _, err := sc.manager.Evaluate(group); err != nil {
			return err
		}
	}
	for _, m := range feas {
		m.Fit.Yield = m.Cand.Yield()
	}
	return nil
}

// PromoteBest holds the population's incumbent at stage-2 accuracy; see
// promoteBest.
func (sc *SearchContext) PromoteBest(pop []*Member, best int) (int, error) {
	return promoteBest(pop, best, sc.Opts.MaxSims, sc.Opts.Workers)
}

// EnsureStage2 tops a feasible member up to the full per-candidate budget
// (creating its candidate if the member has never been estimated) and
// refreshes its fitness yield.
func (sc *SearchContext) EnsureStage2(m *Member) error {
	if !m.Fit.Feasible {
		return nil
	}
	if m.Cand == nil {
		m.Cand = sc.NewCandidate(m.X)
	}
	m.Cand.SetWorkers(sc.Opts.Workers)
	if err := m.Cand.EnsureSamples(sc.Opts.MaxSims); err != nil {
		return err
	}
	m.Fit.Yield = m.Cand.Yield()
	return nil
}

// Err reports the run context's cancellation state; backends check it at
// each generation boundary.
func (sc *SearchContext) Err() error {
	if sc.Opts.Ctx != nil {
		return sc.Opts.Ctx.Err()
	}
	return nil
}

// UsedSims returns the simulator calls this run has spent so far.
func (sc *SearchContext) UsedSims() int64 {
	return sc.counter.Total() - sc.simBase
}

// BudgetExhausted reports whether the run has reached Options.SimBudget.
// With no budget set it is always false.
func (sc *SearchContext) BudgetExhausted() bool {
	return sc.Opts.SimBudget > 0 && sc.UsedSims() >= sc.Opts.SimBudget
}

// NMTriggered counts one local-refinement trigger (result bookkeeping plus
// the /metrics counter).
func (sc *SearchContext) NMTriggered() {
	sc.nmTriggers++
	mNMTriggers.Inc()
}

// Record appends one generation record to the run history and delivers it
// to the OnGeneration callback. Backends fill Gen/best/feasible fields; the
// record's slices must already be private copies (see SnapshotTrials).
func (sc *SearchContext) Record(rec GenRecord) {
	mGenerations.Inc()
	sc.history = append(sc.history, rec)
	if sc.Opts.OnGeneration != nil {
		sc.Opts.OnGeneration(rec)
	}
}

// SnapshotTrials fills a record's feasible-trial snapshot fields from the
// given members: the feasible count always, and — when
// Options.RecordPopulations is set — deep-copied designs with their yields
// and sample/simulation counts. The record crosses the OnGeneration
// boundary and lives on in History, so nothing in it may alias a live
// population member.
func (sc *SearchContext) SnapshotTrials(rec *GenRecord, trials []*Member) {
	for _, tr := range trials {
		if !tr.Fit.Feasible {
			continue
		}
		rec.NumFeasible++
		if sc.Opts.RecordPopulations && tr.Cand != nil {
			rec.Designs = append(rec.Designs, append([]float64(nil), tr.X...))
			rec.Yields = append(rec.Yields, tr.Cand.Yield())
			rec.SampleCounts = append(rec.SampleCounts, tr.Cand.Samples())
			rec.SimCounts = append(rec.SimCounts, tr.Cand.Sims())
		}
	}
}

// Finalize tops the winning member up to full reporting accuracy and
// assembles the Result from the run's accumulated history.
func (sc *SearchContext) Finalize(best *Member, gens int, reason string) (*Result, error) {
	res := &Result{
		Problem:     sc.Problem.Name(),
		Method:      sc.Opts.Method,
		Backend:     sc.backend,
		History:     sc.history,
		NMTriggers:  sc.nmTriggers,
		Generations: gens,
		StopReason:  reason,
	}
	if best.Fit.Feasible {
		if err := sc.EnsureStage2(best); err != nil {
			return nil, err
		}
		res.BestSamples = best.Cand.Samples()
	}
	res.BestX = append([]float64(nil), best.X...)
	res.BestYield = best.Fit.Yield
	res.Feasible = best.Fit.Feasible
	res.TotalSims = sc.UsedSims()
	return res, nil
}

// promoteBest holds the population's incumbent at stage-2 accuracy: top the
// current best up to the full per-candidate budget, re-scan — the corrected
// estimate may dethrone it — and repeat until the crowned best is itself
// backed by maxSims samples. A single top-up pass is not enough: the
// incumbent's corrected (usually lower) yield can crown a *different*, still
// stage-1-estimated member whose lucky overestimate would then ratchet in as
// an unbeatable incumbent — exactly the failure the top-up exists to
// prevent. Each iteration either returns or promotes one member to the full
// budget, so the loop terminates within len(pop) top-ups.
func promoteBest(pop []*Member, best, maxSims, workers int) (int, error) {
	for {
		b := pop[best]
		if !b.Fit.Feasible || b.Cand == nil || b.Cand.Samples() >= maxSims {
			return best, nil
		}
		b.Cand.SetWorkers(workers)
		if err := b.Cand.EnsureSamples(maxSims); err != nil {
			return best, err
		}
		b.Fit.Yield = b.Cand.Yield()
		for i := range pop {
			if constraint.Better(pop[i].Fit, pop[best].Fit) {
				best = i
			}
		}
	}
}

// sampleAll tops every member's candidate up to n samples on the engine's
// worker pool. Per-candidate sample streams are private, so the result is
// independent of scheduling, and the engine reports errors in candidate
// order rather than goroutine-completion order.
func sampleAll(ctx context.Context, ms []*Member, workers, n int) error {
	return engine.ForEachNCtx(ctx, workers, len(ms), func(i int) error {
		return ms[i].Cand.EnsureSamples(n)
	})
}
