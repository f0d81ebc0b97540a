package exp

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"github.com/eda-go/moheco/internal/core"
	_ "github.com/eda-go/moheco/internal/lineasybo" // register the BO backend for races
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/stats"
)

// RaceConfig sets up an equal-budget optimizer race in the protocol of
// Rashid et al. (PAPERS.md): every registered backend runs the same
// scenarios from the same repeat seeds, each run capped at the same
// simulation budget through the run's own simulation ledger (the one its
// screen, estimation, top-up and probe paths all charge), and the
// comparison is yield at budget — not iterations, not generations, which
// different searchers define differently.
//
// Config.Runs is the number of independent runs per (backend, scenario)
// cell (at least 1); repeat seeds are shared across backends, so run r of
// scenario s starts from the same seed whatever the searcher. Config.MaxGens
// caps generations/rounds per run (0 = the optimizer default). Races score
// no reference, so Config.RefSamples is unused.
type RaceConfig struct {
	Config
	// Backends are the core registry names to race; empty means every
	// registered backend.
	Backends []string
	// Scenarios are the workloads to race on; empty means every registered
	// scenario.
	Scenarios []string
	// SimBudget caps each run's simulator calls (Options.SimBudget).
	SimBudget int64
	// MaxSims is the stage-2 per-candidate budget; 0 means the scenario's
	// default.
	MaxSims int
}

// RaceRun is one optimization run's outcome inside the race.
type RaceRun struct {
	Backend     string  `json:"backend"`
	Scenario    string  `json:"scenario"`
	Run         int     `json:"run"`
	Seed        uint64  `json:"seed"`
	Yield       float64 `json:"yield"`
	Feasible    bool    `json:"feasible"`
	Sims        int64   `json:"sims"`
	Generations int     `json:"generations"`
	StopReason  string  `json:"stop_reason"`
}

// RaceCell aggregates one (backend, scenario) cell of the race grid.
type RaceCell struct {
	Backend      string `json:"backend"`
	Scenario     string `json:"scenario"`
	FeasibleRuns int    `json:"feasible_runs"`
	Runs         int    `json:"runs"`
	// Yield summarizes yield-at-budget over all runs, an infeasible run
	// counting as 0. stats.Summary orders by "smaller is better", so for
	// yields Best is the LOWEST observed yield and Worst the highest.
	Yield stats.Summary `json:"yield"`
	Sims  stats.Summary `json:"sims"`
}

// RaceResult is the full race outcome: the per-run rows and the aggregated
// grid, under one shared budget.
type RaceResult struct {
	SimBudget int64      `json:"sim_budget"`
	Repeats   int        `json:"repeats"`
	Seed      uint64     `json:"seed"`
	Cells     []RaceCell `json:"cells"`
	Runs      []RaceRun  `json:"runs"`
}

// RunRace executes the race grid: one row per (backend, scenario) cell.
// Each run derives its seed from its scenario and repeat only, so a
// backend never sees a seed another backend didn't.
func RunRace(cfg RaceConfig) (*RaceResult, error) {
	backends := cfg.Backends
	if len(backends) == 0 {
		backends = core.Backends()
	}
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = scenario.Names()
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	if cfg.SimBudget <= 0 {
		return nil, fmt.Errorf("exp: race needs a positive SimBudget, got %d", cfg.SimBudget)
	}
	var rows []row
	for _, b := range backends {
		for _, s := range scenarios {
			sc, err := scenario.Get(s)
			if err != nil {
				return nil, err
			}
			maxSims := cfg.MaxSims
			if maxSims == 0 {
				maxSims = sc.DefaultMaxSims
			}
			rows = append(rows, row{
				label:   b + "/" + s,
				problem: sc.New(),
				edit: func(o *core.Options) {
					o.MaxSims = maxSims
					o.Backend = b
					o.SimBudget = cfg.SimBudget
				},
				seedKey: []uint64{0xace, uint64(slices.Index(scenarios, s))},
			})
		}
	}
	ms, err := runGrid("race", rows, cfg.Config)
	if err != nil {
		return nil, err
	}
	out := &RaceResult{SimBudget: cfg.SimBudget, Repeats: cfg.Runs, Seed: cfg.Seed}
	for i, m := range ms {
		rc := RaceCell{
			Backend:      backends[i/len(scenarios)],
			Scenario:     scenarios[i%len(scenarios)],
			FeasibleRuns: m.Feasible,
			Runs:         len(m.Runs),
			Sims:         m.Sims,
		}
		yields := make([]float64, len(m.Runs))
		for run, st := range m.Runs {
			rr := RaceRun{
				Backend:     rc.Backend,
				Scenario:    rc.Scenario,
				Run:         run,
				Seed:        st.Seed,
				Feasible:    st.Feasible,
				Sims:        st.Sims,
				Generations: st.Generations,
				StopReason:  st.StopReason,
			}
			// An infeasible run's yield at budget counts as 0.
			if st.Feasible {
				rr.Yield = st.Yield
			}
			yields[run] = rr.Yield
			out.Runs = append(out.Runs, rr)
		}
		rc.Yield = stats.Summarize(yields)
		out.Cells = append(out.Cells, rc)
	}
	return out, nil
}

// Render writes the race grid as a text table: yield at budget per backend
// and scenario.
func (r *RaceResult) Render(w io.Writer) {
	fmt.Fprintf(w, "equal-budget optimizer race — yield at %d simulations (%d repeats)\n",
		r.SimBudget, r.Repeats)
	fmt.Fprintf(w, "%-14s %-24s %10s %10s %10s %10s %9s\n",
		"backend", "scenario", "best", "worst", "average", "avg sims", "feasible")
	for _, c := range r.Cells {
		// Summary orders by "smaller is better": for yields the highest
		// (best) value sits in Worst and vice versa.
		fmt.Fprintf(w, "%-14s %-24s %9.2f%% %9.2f%% %9.2f%% %10.0f %6d/%d\n",
			c.Backend, c.Scenario, 100*c.Yield.Worst, 100*c.Yield.Best, 100*c.Yield.Average,
			c.Sims.Average, c.FeasibleRuns, c.Runs)
	}
}

// WriteCSV exports the per-run race rows for external plotting.
func (r *RaceResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{
		"backend", "scenario", "run", "seed", "sim_budget",
		"yield", "feasible", "sims", "generations", "stop_reason",
	}); err != nil {
		return err
	}
	for _, rr := range r.Runs {
		rec := []string{
			rr.Backend, rr.Scenario, strconv.Itoa(rr.Run), strconv.FormatUint(rr.Seed, 10),
			strconv.FormatInt(r.SimBudget, 10),
			fmtF(rr.Yield), strconv.FormatBool(rr.Feasible), strconv.FormatInt(rr.Sims, 10),
			strconv.Itoa(rr.Generations), rr.StopReason,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON exports the race result in the BENCH_optimizers.json shape CI
// uploads next to the other snapshots.
func (r *RaceResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
