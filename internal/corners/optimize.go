package corners

import (
	"fmt"

	"github.com/eda-go/moheco/internal/de"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
)

// OptimizeOptions configures the corner-based sizing run.
type OptimizeOptions struct {
	// ObjectiveIndex selects the performance entry to minimize once all
	// corners pass (e.g. power).
	ObjectiveIndex int
	PopSize        int
	MaxGens        int
	Seed           uint64
}

// deF and deCR are the differential-evolution weight and crossover rate of
// the corner-based search.
const (
	deF  = 0.8
	deCR = 0.8
)

// Result is the corner-based sizing outcome.
type Result struct {
	X           []float64
	Objective   float64
	CornersPass bool
	Evaluations int64
	Generations int
}

// Optimize runs the classical corner-based sizing flow: differential
// evolution minimizing the objective subject to worst-case feasibility over
// the corner set. Infeasible candidates compare by worst-case violation;
// feasible ones by objective. Each candidate evaluation costs
// len(corners)+1 circuit simulations — the efficiency that makes corner
// methods attractive, and the accuracy risk the paper warns about.
func Optimize(p problem.Problem, cs []Corner, opts OptimizeOptions) (*Result, error) {
	if opts.PopSize == 0 {
		opts.PopSize = 50
	}
	if opts.MaxGens == 0 {
		opts.MaxGens = 150
	}
	cfg := de.Config{NP: opts.PopSize, F: deF, CR: deCR}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lo, hi := p.Bounds()
	rng := randx.New(opts.Seed)
	var evals int64

	type fitness struct {
		violation float64
		objective float64
	}
	better := func(a, b fitness) bool {
		if a.violation != b.violation {
			return a.violation < b.violation
		}
		return a.objective < b.objective
	}
	eval := func(x []float64) (fitness, error) {
		w, err := WorstCase(p, x, cs)
		evals += int64(len(cs))
		if err != nil {
			return fitness{violation: 1e9}, nil
		}
		perf, err := p.Evaluate(x, nil)
		evals++
		if err != nil {
			return fitness{violation: 1e9}, nil
		}
		if opts.ObjectiveIndex < 0 || opts.ObjectiveIndex >= len(perf) {
			return fitness{}, fmt.Errorf("corners: objective index %d out of range", opts.ObjectiveIndex)
		}
		return fitness{violation: w, objective: perf[opts.ObjectiveIndex]}, nil
	}

	pop := make([][]float64, cfg.NP)
	fits := make([]fitness, cfg.NP)
	best := 0
	for i := range pop {
		pop[i] = problem.RandomDesign(p, rng)
		f, err := eval(pop[i])
		if err != nil {
			return nil, err
		}
		fits[i] = f
		if better(fits[i], fits[best]) {
			best = i
		}
	}
	gens := 0
	for gen := 0; gen < opts.MaxGens; gen++ {
		gens = gen + 1
		trials := de.Generation(pop, best, lo, hi, cfg, rng)
		for i, tr := range trials {
			f, err := eval(tr)
			if err != nil {
				return nil, err
			}
			if better(f, fits[i]) || (f.violation == fits[i].violation && f.objective == fits[i].objective) {
				pop[i], fits[i] = tr, f
			}
		}
		for i := range fits {
			if better(fits[i], fits[best]) {
				best = i
			}
		}
	}
	return &Result{
		X:           append([]float64(nil), pop[best]...),
		Objective:   fits[best].objective,
		CornersPass: fits[best].violation == 0,
		Evaluations: evals,
		Generations: gens,
	}, nil
}
