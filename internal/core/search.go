package core

import (
	"time"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/de"
	"github.com/eda-go/moheco/internal/engine"
	"github.com/eda-go/moheco/internal/ocba"
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

// SearchContext is the shared half of an optimization run: the problem and
// bounds, the run RNG, the candidate factory, the nominal screen, the
// method-specific yield estimator, the stage-2 top-up, the run's
// simulation ledger and the generation loop that drives a backend's
// rounds. Backends consume it so that budget accounting, determinism
// (fixed seed ⇒ bit-identical, Workers=1 vs N), cancellation, stop rules
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

	counter    *yieldsim.Counter // the run's own ledger; its parent is Opts.Counter
	ycfg       yieldsim.Config
	candSeq    uint64
	backend    string
	history    []GenRecord
	nmTriggers int
}

func newSearchContext(p problem.Problem, o Options, backend string) *SearchContext {
	lo, hi := p.Bounds()
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
		counter: yieldsim.NewCounter(o.Counter),
		ycfg: yieldsim.Config{
			Sampler:            o.Sampler,
			AcceptanceSampling: o.AcceptanceSampling,
			Workers:            1,
			Ctx:                o.Ctx,
		},
		backend: backend,
	}
}

// run is the generation loop of Fig. 4 for every backend: it checks for
// cancellation at each generation boundary, runs one round of s, keeps the
// stall count, records the generation and applies the step-11 stop rules,
// then reports the incumbent at full accuracy.
func (sc *SearchContext) run(s Search) (*Result, error) {
	o := sc.Opts
	stall := 0 // generations without improvement
	reason := "max-generations"
	gen := 0
	for gen = 1; gen <= o.MaxGenerations; gen++ {
		if o.Ctx != nil {
			if err := o.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		genStart := time.Now()
		evaluated, improved, err := s.Round(sc)
		if err != nil {
			return nil, err
		}
		best := s.Incumbent()
		switch {
		case improved:
			stall = 0
		case !best.Fit.Feasible:
			// The paper's stall criterion is "the yield does not increase
			// for 20 subsequent generations" — it only starts once there is
			// a yield to speak of. The constraint-satisfaction phase runs
			// under the generation cap alone.
			stall = 0
		default:
			stall++
		}

		rec := GenRecord{
			Gen:           gen,
			BestYield:     best.Fit.Yield,
			BestFeasible:  best.Fit.Feasible,
			BestViolation: best.Fit.Violation,
			CumSims:       sc.counter.Total(),
		}
		sc.snapshotTrials(&rec, evaluated)
		mGenSeconds.Observe(time.Since(genStart).Seconds())
		mGenerations.Inc()
		sc.history = append(sc.history, rec)
		if o.OnGeneration != nil {
			o.OnGeneration(rec)
		}

		// Step 11: stopping criteria.
		if best.Fit.Feasible && best.Fit.Yield >= o.TargetYield {
			reason = "target-yield"
			break
		}
		if stall >= o.StallStop {
			reason = "stalled"
			break
		}
		if o.SimBudget > 0 && sc.counter.Total() >= o.SimBudget {
			reason = "budget"
			break
		}
	}
	if gen > o.MaxGenerations {
		gen = o.MaxGenerations
	}
	return sc.finalize(s.Incumbent(), gen, reason)
}

// InitialPopulation draws n random designs from the run RNG, screens them
// and estimates the feasible ones. The population is a DE population (a
// line-BO warm-up doubles as its feasibility-phase population), so its DE
// configuration is validated before anything is drawn.
func (sc *SearchContext) InitialPopulation(n int) ([]*Member, error) {
	if err := sc.deConfig(n).Validate(); err != nil {
		return nil, err
	}
	// Designs are drawn sequentially (the run RNG is shared state); their
	// feasibility checks then run on the worker pool.
	pop := make([]*Member, n)
	for i := range pop {
		pop[i] = &Member{X: problem.RandomDesign(sc.Problem, sc.RNG)}
	}
	return pop, sc.Evaluate(pop)
}

// DEGeneration runs one DE/best/1/bin generation over pop around its
// member best (paper steps 1–8): mutation and crossover, evaluation of the
// trials, then Deb's one-to-one selection, which replaces pop's members in
// place. It returns the evaluated trials.
func (sc *SearchContext) DEGeneration(pop []*Member, best int) ([]*Member, error) {
	popX := make([][]float64, len(pop))
	for i, m := range pop {
		popX[i] = m.X
	}
	trialsX := de.Generation(popX, best, sc.Lo, sc.Hi, sc.deConfig(len(pop)), sc.RNG)
	trials := make([]*Member, len(trialsX))
	for i, x := range trialsX {
		trials[i] = &Member{X: x}
	}
	if err := sc.Evaluate(trials); err != nil {
		return nil, err
	}
	for i, tr := range trials {
		if constraint.BetterOrEqual(tr.Fit, pop[i].Fit) {
			pop[i] = tr
		}
	}
	return trials, nil
}

// deConfig is the DE configuration of a population of n.
func (sc *SearchContext) deConfig(n int) de.Config {
	return de.Config{NP: n, F: sc.Opts.F, CR: sc.Opts.CR}
}

// BestIndex scans ms for the best member under Deb's rules, starting from
// the incumbent at index best: a member replaces the current choice only
// when it is strictly better, so ties keep it.
func BestIndex(ms []*Member, best int) int {
	for i := range ms {
		if constraint.Better(ms[i].Fit, ms[best].Fit) {
			best = i
		}
	}
	return best
}

// Evaluate screens the members at the nominal point and estimates the
// yield of the feasible ones (paper steps 3–7). The nominal checks run on
// the worker pool: they are independent and the simulation counter is
// atomic.
func (sc *SearchContext) Evaluate(ms []*Member) error {
	err := engine.ForEachNCtx(sc.Opts.Ctx, sc.Opts.Workers, len(ms), func(i int) error {
		ms[i].Fit = sc.nominal(ms[i].X, yieldsim.Screen)
		return nil
	})
	if err != nil {
		return err
	}
	return sc.estimate(ms)
}

// newCandidate builds the yield candidate for a design, charging its
// samples to purpose until it is retagged. Each candidate owns a private
// random stream derived from the run seed and a creation sequence number,
// so estimates are independent of worker scheduling — but the creation
// ORDER matters: backends must create candidates in a deterministic
// sequence.
func (sc *SearchContext) newCandidate(x []float64, purpose yieldsim.Purpose) *yieldsim.Candidate {
	sc.candSeq++
	c := yieldsim.NewCandidate(sc.Problem, x, sc.ycfg, sc.counter,
		randx.DeriveSeed(sc.Opts.Seed, 0x5eed, sc.candSeq))
	c.SetPurpose(purpose)
	return c
}

// nominal evaluates a design at the nominal process point and returns its
// constraint fitness; the check is charged as one simulator call to
// purpose.
func (sc *SearchContext) nominal(x []float64, purpose yieldsim.Purpose) constraint.Fitness {
	fit, _, _ := problem.NominalFitness(sc.Problem, x)
	sc.counter.Add(purpose, 1)
	return fit
}

// estimate runs the configured method's yield estimation over the feasible
// members: fixed per-candidate budgets for MethodFixedBudget, otherwise the
// paper's two-stage ordinal-optimization flow (§2.3). Stage 1 treats the
// feasible candidates as an ordinal optimization problem: after an n0
// warm-up, the OCBA rule distributes T = SimAve·len samples so promising
// candidates are ranked reliably while clearly poor ones get only enough
// to keep the selection operator honest. Stage 2 promotes every candidate
// whose stage-1 estimate clears Threshold to the full per-candidate budget
// MaxSims, so the yield it reports carries reference-flow accuracy.
// Candidates are created here, in member order, and each stage charges
// its own purpose.
func (sc *SearchContext) estimate(ms []*Member) error {
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
	purpose := yieldsim.Stage1
	if o.Method == MethodFixedBudget {
		purpose = yieldsim.Fixed
	}
	for _, m := range feas {
		m.Cand = sc.newCandidate(m.X, purpose)
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
	group := make([]ocba.Candidate, len(feas))
	for i, m := range feas {
		group[i] = m.Cand
	}
	switch o.Method {
	case MethodFixedBudget:
		// Candidates sample independent streams: evaluate in parallel.
		adds := make([]int, len(feas))
		for i := range adds {
			adds[i] = o.FixedSims
		}
		if err := ocba.RunIncrements(o.Workers, group, adds); err != nil {
			return err
		}
	default:
		// The sequencer opens with the independent n0 warm-up of every
		// candidate; its OCBA rounds parallelize within each round.
		seq := &ocba.Sequencer{N0: o.N0, Delta: o.Delta, Workers: o.Workers}
		if _, err := seq.Run(group, o.SimAve*len(feas)); err != nil {
			return err
		}
		// Stage 2: the promotion set is decided sequentially, then the
		// independent top-ups run on the worker pool. A promoted candidate
		// may already hold more than MaxSims samples (stage 1 can
		// concentrate SimAve·len on one candidate), so its increment is
		// clamped to zero: it is already stage-2 accurate.
		adds := make([]int, len(feas))
		for i, m := range feas {
			m.Cand.SetPurpose(yieldsim.Stage2)
			if m.Cand.Yield() > o.Threshold {
				adds[i] = max(o.MaxSims-m.Cand.Samples(), 0)
			}
		}
		if err := ocba.RunIncrements(o.Workers, group, adds); err != nil {
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

// nmTriggered counts one local-refinement trigger (result bookkeeping plus
// the /metrics counter).
func (sc *SearchContext) nmTriggered() {
	sc.nmTriggers++
	mNMTriggers.Inc()
}

// snapshotTrials fills a record's feasible-trial snapshot fields from the
// given members: the feasible count always, and — when
// Options.RecordPopulations is set — deep-copied designs with their yields
// and sample/simulation counts. The record crosses the OnGeneration
// boundary and lives on in History, so nothing in it may alias a live
// population member.
func (sc *SearchContext) snapshotTrials(rec *GenRecord, trials []*Member) {
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

// finalize tops the winning member up to the full per-candidate budget
// (creating its candidate if it has never been estimated), refreshes its
// yield and assembles the Result from the run's accumulated history.
func (sc *SearchContext) finalize(best *Member, gens int, reason string) (*Result, error) {
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
		if best.Cand == nil {
			best.Cand = sc.newCandidate(best.X, yieldsim.TopUp)
		}
		best.Cand.SetPurpose(yieldsim.TopUp)
		best.Cand.SetWorkers(sc.Opts.Workers)
		if err := best.Cand.EnsureSamples(sc.Opts.MaxSims); err != nil {
			return nil, err
		}
		best.Fit.Yield = best.Cand.Yield()
		res.BestSamples = best.Cand.Samples()
	}
	res.BestX = append([]float64(nil), best.X...)
	res.BestYield = best.Fit.Yield
	res.Feasible = best.Fit.Feasible
	res.SimSplit = sc.counter.Split()
	res.TotalSims = res.SimSplit.Total()
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
		b.Cand.SetPurpose(yieldsim.TopUp)
		b.Cand.SetWorkers(workers)
		if err := b.Cand.EnsureSamples(maxSims); err != nil {
			return best, err
		}
		b.Fit.Yield = b.Cand.Yield()
		best = BestIndex(pop, best)
	}
}
