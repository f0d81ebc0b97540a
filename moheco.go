// Package moheco is the public API of the MOHECO yield-optimization library,
// a from-scratch Go reproduction of "An Accurate and Efficient Yield
// Optimization Method for Analog Circuits Based on Computing Budget
// Allocation and Memetic Search Technique" (Liu, Fernández, Gielen,
// DATE 2010).
//
// MOHECO sizes analog circuits for maximum manufacturing yield under
// process variations. It keeps the accuracy and generality of Monte-Carlo
// yield estimation while spending a fraction of the simulations of a
// fixed-budget MC flow, by (1) distributing each generation's simulation
// budget over the candidate population with the OCBA rule of ordinal
// optimization, in a two-stage estimation flow, and (2) accelerating the
// evolutionary search with a Nelder–Mead memetic operator applied to the
// best member when differential evolution stalls.
//
// # Quick start
//
//	p := moheco.NewCommonSourceProblem()
//	opts := moheco.DefaultOptions(moheco.MethodMOHECO, 500)
//	opts.Seed = 1
//	res, err := moheco.Optimize(p, opts)
//	if err != nil { ... }
//	fmt.Printf("yield %.2f%% in %d simulations\n", 100*res.BestYield, res.TotalSims)
//
// The paper's two benchmark circuits are available through
// NewFoldedCascodeProblem (example 1, 0.35µm) and NewTelescopicProblem
// (example 2, 90nm). Custom circuits implement the Problem interface.
//
// The simulator-in-the-loop problems — NewCommonSourceSpiceProblem and the
// registered *-spice and *-tran scenarios — are all one type,
// circuits.SpiceProblem: each scores every Monte-Carlo sample by simulating
// its testbench in the built-in MNA engine, and a scenario's only code is
// its testbench definition.
package moheco

import (
	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/core"
	_ "github.com/eda-go/moheco/internal/lineasybo" // register the BO optimizer backend
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// Problem describes a yield-optimization problem: a bounded design space, a
// specification list, a process-variation space, and a performance
// evaluator. See the package documentation of internal/problem for the full
// contract.
type Problem = problem.Problem

// Spec is one performance specification (e.g. "A0 ≥ 70 dB").
type Spec = constraint.Spec

// Specification senses.
const (
	AtLeast = constraint.AtLeast
	AtMost  = constraint.AtMost
)

// Method selects the optimization strategy.
type Method = core.Method

// Available methods: MOHECO (the paper's algorithm), its ablation without
// the memetic operator, and the fixed-budget Monte-Carlo baseline.
const (
	MethodMOHECO      = core.MethodMOHECO
	MethodOOOnly      = core.MethodOOOnly
	MethodFixedBudget = core.MethodFixedBudget
)

// Options configures an optimization run; Result reports its outcome.
type (
	Options   = core.Options
	Result    = core.Result
	GenRecord = core.GenRecord
)

// Backends returns the registered search-backend names accepted by
// Options.Backend: "memetic" (the paper's DE+NM loop, the default) and
// "lineasybo" (one-dimensional-subspace Bayesian optimization) ship
// built in. All backends share the estimation machinery — two-stage OO or
// fixed-budget Monte-Carlo, the simulation counter, cancellation and the
// fixed-seed determinism contract.
func Backends() []string { return core.Backends() }

// DefaultOptions returns the paper's parameter settings (population 50,
// F = CR = 0.8, n0 = 15, simAve = 35, 97% promotion threshold, stall limits
// 5/20) for the given method and stage-2 sample budget (paper: 500).
func DefaultOptions(m Method, maxSims int) Options {
	return core.DefaultOptions(m, maxSims)
}

// Optimize runs a yield optimization and returns the best design found,
// its reported yield, the total number of circuit simulations spent, and
// the per-generation history.
func Optimize(p Problem, opts Options) (*Result, error) {
	return core.Optimize(p, opts)
}

// EstimateYield computes an n-sample plain Monte-Carlo yield estimate of
// design x — the reference analysis the paper scores every method against
// (n = 50000 there) — using all available cores.
func EstimateYield(p Problem, x []float64, n int, seed uint64) (float64, error) {
	return EstimateYieldWorkers(p, x, n, seed, 0)
}

// EstimateYieldWorkers is EstimateYield with an explicit worker count
// (0 = GOMAXPROCS, 1 = sequential). The sample stream is chunked
// deterministically, so every worker count returns the identical estimate.
func EstimateYieldWorkers(p Problem, x []float64, n int, seed uint64, workers int) (float64, error) {
	y, _, err := yieldsim.ReferenceWorkers(p, x, n, seed, nil, workers)
	return y, err
}

// NewFoldedCascodeProblem returns the paper's example 1: a fully
// differential folded-cascode amplifier in a synthetic 0.35µm 3.3V CMOS
// technology with 80 process-variation variables.
func NewFoldedCascodeProblem() *circuits.FoldedCascode { return circuits.NewFoldedCascode() }

// NewTelescopicProblem returns the paper's example 2: a two-stage
// telescopic cascode amplifier in a synthetic 90nm 1.2V CMOS technology
// with 123 process-variation variables.
func NewTelescopicProblem() *circuits.Telescopic { return circuits.NewTelescopic() }

// NewCommonSourceProblem returns the small quickstart problem: a
// common-source stage with a current-source load (32 variation variables).
func NewCommonSourceProblem() *circuits.CommonSource { return circuits.NewCommonSource() }

// NewCommonSourceSpiceProblem returns the quickstart problem evaluated
// through the built-in MNA circuit simulator instead of the behavioural
// model: every Monte-Carlo sample perturbs the model cards of a compiled
// testbench netlist and runs DC + AC analyses, the fully general (and far
// slower) path that mirrors the paper's HSPICE-in-the-loop flow. Every
// simulator-in-the-loop scenario is a circuits.SpiceProblem; they differ
// only in their testbench definitions.
func NewCommonSourceSpiceProblem() *circuits.SpiceProblem {
	return circuits.NewCommonSourceSpice()
}
