// Package core implements MOHECO — the Memetic Ordinal-Optimization-based
// Hybrid Evolutionary Constrained Optimization algorithm of the paper — and
// the baselines it is compared against. The optimizer follows Fig. 4 of the
// paper:
//
//	initialize population → select base vector → DE mutation/crossover →
//	feasibility check (nominal) → stage-1 OO yield estimation (OCBA) or
//	stage-2 full-budget estimation → Deb selection → occasional Nelder–Mead
//	refinement of the best member → repeat until 100% yield or stall.
//
// Three methods share this loop:
//
//   - MethodMOHECO: two-stage OO estimation + memetic NM refinement.
//   - MethodOOOnly: two-stage OO estimation, no memetic operator
//     ("OO+AS+LHS" in the paper's tables).
//   - MethodFixedBudget: every feasible candidate receives a fixed number of
//     samples ("300/500/700 simulations, AS+LHS" in the tables).
//
// All methods use DE/best/1/bin, selection-based constraint handling,
// acceptance sampling and LHS, exactly as the paper prescribes for its
// comparisons.
//
// The estimation machinery and the generation loop are independent of the
// search strategy: a SearchContext bundles the nominal screen, the
// two-stage/fixed-budget estimator, the candidate factory, the stage-2
// top-up and the loop with its stop rules, and pluggable Optimizer
// backends (see RegisterOptimizer) supply only the initial population and
// the round that proposes and selects designs.
// The paper's memetic DE+NM loop is the "memetic" backend and the default;
// internal/lineasybo contributes a one-dimensional-subspace Bayesian
// optimization backend for equal-budget comparisons.
package core

import (
	"context"
	"fmt"

	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// Optimizer-level instrumentation: generation and local-search trigger
// totals plus per-generation wall time, for the /metrics view of budget
// spend. Results stay bit-deterministic — wall time lives only here, never
// in GenRecord/Result.
var (
	mGenerations = obs.Default().Counter("core_generations_total")
	mNMTriggers  = obs.Default().Counter("core_nm_triggers_total")
	mGenSeconds  = obs.Default().Histogram("core_generation_seconds", nil)
)

// Method selects the estimation strategy.
type Method int

// The compared methods.
const (
	// MethodMOHECO is the paper's contribution: OO + AS + LHS + memetic DE/NM.
	MethodMOHECO Method = iota
	// MethodOOOnly is MOHECO without the memetic operator (OO+AS+LHS).
	MethodOOOnly
	// MethodFixedBudget gives every feasible candidate FixedSims samples
	// (the AS+LHS baseline).
	MethodFixedBudget
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodMOHECO:
		return "MOHECO"
	case MethodOOOnly:
		return "OO+AS+LHS"
	case MethodFixedBudget:
		return "AS+LHS"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod maps a method's command-line and wire name to its Method:
// "moheco", "oo" or "fixed".
func ParseMethod(name string) (Method, error) {
	switch name {
	case "moheco":
		return MethodMOHECO, nil
	case "oo":
		return MethodOOOnly, nil
	case "fixed":
		return MethodFixedBudget, nil
	}
	return 0, fmt.Errorf("unknown method %q (moheco | oo | fixed)", name)
}

// Options configures a run. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	Method Method

	// Backend names the registered search backend (see Backends). Empty
	// means "memetic" — the paper's DE+NM loop.
	Backend string

	// Evolutionary parameters (paper §3: 50 / 0.8 / 0.8).
	PopSize int
	F       float64
	CR      float64

	// Two-stage OO parameters (paper: n0=15, simAve=35, Δ=10, threshold 97%).
	N0        int
	SimAve    int
	Delta     int
	Threshold float64

	// MaxSims is the stage-2 / final-accuracy per-candidate budget
	// (paper: 500). FixedSims is the per-candidate budget of the
	// fixed-budget baseline; 0 means MaxSims.
	MaxSims   int
	FixedSims int

	// Memetic operator: trigger after StallLocal stalled generations, run
	// NM for NMIters iterations (paper: 5 and ~10).
	StallLocal int
	NMIters    int

	// Stopping: reported yield ≥ TargetYield, or StallStop generations
	// without improvement, or MaxGenerations.
	TargetYield    float64
	StallStop      int
	MaxGenerations int

	// SimBudget, when positive, caps the run's total simulator calls
	// (on the run's own ledger): the run stops with
	// StopReason "budget" at the first generation boundary at or past the
	// cap. This is the equal-budget race knob — every backend spends the
	// same simulation budget, whatever its per-generation appetite. The
	// cap is checked only at the end of a generation, never after the
	// initial population, so TotalSims may pass it by one whole
	// generation's spend (the first generation's includes the initial
	// population's) plus the final report's accuracy top-up: memetic runs
	// on commonsource under a 1500-sim cap at stage-2 budget 60 ended
	// their first generation at 3261 and 2562 sims. Races compare yield
	// at the recorded spend.
	SimBudget int64

	// Sampling configuration.
	Sampler            sample.Sampler
	AcceptanceSampling bool

	// Seed fixes all randomness of the run.
	Seed uint64

	// Workers sets the number of goroutines used by the parallel
	// evaluation engine (0 = GOMAXPROCS, 1 = fully sequential). Every
	// simulation-heavy path — nominal-fitness screening, the initial n0
	// warm-up, OCBA allocation rounds, stage-2 promotions, fixed-budget
	// estimation, the best member's top-up and the Nelder–Mead probes —
	// runs through it. Each candidate owns an independent random stream,
	// so results are bit-identical regardless of the worker count.
	Workers int

	// Ctx, when non-nil, cancels the run: the generation loop checks it
	// at each generation boundary and every candidate's sample batches
	// observe it chunk by chunk, so a cancelled optimization stops
	// spending simulations within one evaluation chunk per worker and
	// Optimize returns the context's error. Cancellation never changes a
	// completed run's result.
	Ctx context.Context

	// OnGeneration, when non-nil, is called after each generation's
	// bookkeeping with that generation's record — the progress feed the
	// yield service streams to clients. It runs on the optimizer's
	// goroutine; implementations must be fast and must not retain the
	// record's slices past the call.
	OnGeneration func(GenRecord)

	// Counter, when non-nil, is the parent of the run's own simulation
	// ledger: every simulation the run charges also reaches it at once,
	// letting a host (the yield service, experiment harnesses) account
	// simulator calls across runs, concurrent ones included. It never
	// changes the run: Result.TotalSims, GenRecord.CumSims and SimBudget
	// count only this run's simulations, whatever the counter held.
	Counter *yieldsim.Counter

	// RecordPopulations stores per-generation feasible-candidate snapshots
	// in the history (needed by the Fig. 3 and §3.4 experiments).
	RecordPopulations bool
}

// paperDefaults holds the paper's parameter settings. DefaultOptions starts
// from it, and withDefaults fills every zero field of a caller's options
// from it.
var paperDefaults = Options{
	Backend:        DefaultBackend,
	PopSize:        50,
	F:              0.8,
	CR:             0.8,
	N0:             15,
	SimAve:         35,
	Delta:          10,
	Threshold:      0.97,
	MaxSims:        500,
	StallLocal:     5,
	NMIters:        10,
	TargetYield:    1.0,
	StallStop:      20,
	MaxGenerations: 300,
	Sampler:        sample.LHS{},
}

// DefaultOptions returns the paper's parameter settings for the given
// method and stage-2 budget. FixedSims is left 0 (= MaxSims), so lowering
// MaxSims afterwards also lowers the fixed budget.
func DefaultOptions(method Method, maxSims int) Options {
	o := paperDefaults
	o.Method = method
	o.MaxSims = maxSims
	o.AcceptanceSampling = true
	o.Seed = 1
	return o
}

func (o Options) withDefaults() Options {
	d := paperDefaults
	orDefault(&o.Backend, d.Backend)
	orDefault(&o.PopSize, d.PopSize)
	orDefault(&o.F, d.F)
	orDefault(&o.CR, d.CR)
	orDefault(&o.N0, d.N0)
	orDefault(&o.SimAve, d.SimAve)
	orDefault(&o.Delta, d.Delta)
	orDefault(&o.Threshold, d.Threshold)
	orDefault(&o.MaxSims, d.MaxSims)
	orDefault(&o.FixedSims, o.MaxSims)
	orDefault(&o.StallLocal, d.StallLocal)
	orDefault(&o.NMIters, d.NMIters)
	orDefault(&o.TargetYield, d.TargetYield)
	orDefault(&o.StallStop, d.StallStop)
	orDefault(&o.MaxGenerations, d.MaxGenerations)
	if o.Sampler == nil {
		o.Sampler = d.Sampler
	}
	return o
}

// orDefault sets *v to d when *v is its type's zero value.
func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}

// GenRecord captures one generation for the experiment harness.
type GenRecord struct {
	Gen           int
	BestYield     float64
	BestFeasible  bool
	BestViolation float64
	CumSims       int64
	NumFeasible   int

	// Snapshot of this generation's feasible trial candidates (only when
	// Options.RecordPopulations is set): designs, their estimated yields,
	// accounted MC samples and actual simulator calls.
	Designs      [][]float64
	Yields       []float64
	SampleCounts []int
	SimCounts    []int
}

// Result is the outcome of one optimization run.
type Result struct {
	Problem     string
	Method      Method
	Backend     string // search backend that produced the result
	BestX       []float64
	BestYield   float64 // the reported yield (final-accuracy estimate)
	BestSamples int     // MC samples behind the reported yield
	Feasible    bool
	TotalSims   int64
	SimSplit    yieldsim.Split // TotalSims by purpose; sums to TotalSims
	Generations int
	StopReason  string
	History     []GenRecord
	NMTriggers  int
}

// Optimize runs the configured backend and estimation method on the problem.
func Optimize(p problem.Problem, opts Options) (*Result, error) {
	o := opts.withDefaults()
	backend, err := optimizerFor(o.Backend)
	if err != nil {
		return nil, err
	}
	sc := newSearchContext(p, o, backend.Name())
	s, err := backend.Start(sc)
	if err != nil {
		return nil, err
	}
	return sc.run(s)
}
