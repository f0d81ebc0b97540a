package exp

import (
	"fmt"
	"math"
	"sync"

	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/engine"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/stats"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// row is one line of an experiment's run grid: a method configuration run
// Config.Runs times on one problem, each run from its own seed.
type row struct {
	label   string
	problem problem.Problem
	// edit adjusts the run's options after Config.mohecoOptions; it is
	// called once per run, so it may hand each run fresh state.
	edit func(*core.Options)
	// Run r optimizes from randx.DeriveSeed(Config.Seed, seedKey..., r)
	// and, when refKey is non-nil, scores its design with a
	// Config.RefSamples reference estimate seeded the same way from
	// refKey. A row without refKey reports no deviation.
	seedKey, refKey []uint64
}

// mohecoOptions returns the paper's MOHECO settings at a 500-simulation
// stage-2 budget, seeded, generation-capped by c.MaxGens (0 keeps the
// optimizer default) and run on the given number of engine workers.
func (c Config) mohecoOptions(seed uint64, workers int) core.Options {
	opts := core.DefaultOptions(core.MethodMOHECO, 500)
	opts.Seed = seed
	if c.MaxGens > 0 {
		opts.MaxGenerations = c.MaxGens
	}
	opts.Workers = workers
	return opts
}

// deriveSeed is randx.DeriveSeed(base, key..., run).
func deriveSeed(base uint64, key []uint64, run int) uint64 {
	return randx.DeriveSeed(base, append(key[:len(key):len(key)], uint64(run))...)
}

// runGrid runs every (row, run) cell of an experiment. Cells are
// independent — each derives its seeds from its row and run index — so
// they fan out on the evaluation engine's worker pool, split between the
// fan-out and each run's own engine; results come back in row and run
// order and are identical for every worker count. name prefixes progress
// lines and errors.
func runGrid(name string, rows []row, cfg Config) ([]MethodResult, error) {
	n := cfg.Runs
	inner := engine.Split(cfg.Workers, len(rows)*n)
	var progressMu sync.Mutex
	runs, err := engine.Map(cfg.Workers, len(rows)*n, func(i int) (RunStat, error) {
		r, run := rows[i/n], i%n
		opts := cfg.mohecoOptions(deriveSeed(cfg.Seed, r.seedKey, run), inner)
		r.edit(&opts)
		res, err := core.Optimize(r.problem, opts)
		if err != nil {
			return RunStat{}, fmt.Errorf("%s: %s run %d: %w", name, r.label, run, err)
		}
		st := RunStat{
			Seed:        opts.Seed,
			Sims:        res.TotalSims,
			Yield:       res.BestYield,
			Generations: res.Generations,
			Feasible:    res.Feasible,
			StopReason:  res.StopReason,
		}
		if res.Feasible && r.refKey != nil {
			ref, _, err := yieldsim.ReferenceWorkers(r.problem, res.BestX, cfg.RefSamples,
				deriveSeed(cfg.Seed, r.refKey, run), nil, inner)
			if err != nil {
				return RunStat{}, fmt.Errorf("%s: %s run %d: reference: %w", name, r.label, run, err)
			}
			st.RefYield = ref
			st.Deviation = math.Abs(res.BestYield - ref)
		}
		if cfg.Progress != nil {
			ref := ""
			if r.refKey != nil {
				ref = fmt.Sprintf(" ref=%.4f", st.RefYield)
			}
			progressMu.Lock()
			fmt.Fprintf(cfg.Progress, "%s: %s run %d/%d: gens=%d sims=%d yield=%.4f%s stop=%s\n",
				name, r.label, run+1, n, st.Generations, st.Sims, st.Yield, ref, st.StopReason)
			progressMu.Unlock()
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]MethodResult, len(rows))
	for ri, r := range rows {
		m := MethodResult{Label: r.label, Runs: runs[ri*n : (ri+1)*n : (ri+1)*n]}
		devs := make([]float64, 0, n)
		sims := make([]float64, 0, n)
		for _, st := range m.Runs {
			if st.Feasible {
				m.Feasible++
				devs = append(devs, st.Deviation)
			}
			sims = append(sims, float64(st.Sims))
		}
		m.Deviation = stats.Summarize(devs)
		m.Sims = stats.Summarize(sims)
		out[ri] = m
	}
	return out, nil
}
