// Package exp is the experiment harness that regenerates every table and
// figure of the paper's evaluation (section 3): Tables 1–2 (example 1
// accuracy and cost), Tables 3–4 (example 2), Fig. 3 (OCBA allocation inside
// one population), Fig. 6 (per-method accuracy/cost series) and the §3.4
// response-surface comparison. The tables, the ablation study and the
// equal-budget optimizer race are row lists over one seeded run grid
// (runGrid). The same code backs `go test -bench` targets (reduced
// configurations) and cmd/paperbench (paper-scale runs).
package exp

import (
	"fmt"
	"io"

	_ "github.com/eda-go/moheco/internal/circuits" // register the built-in scenarios
	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/rsb"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/stats"
)

// Config sets the scale of an experiment.
type Config struct {
	// Runs is the number of independent repetitions per method (paper: 10).
	Runs int
	// RefSamples is the reference MC sample count (paper: 50,000).
	RefSamples int
	// MaxGens caps optimizer generations per run.
	MaxGens int
	// Seed derives all per-run seeds.
	Seed uint64
	// Workers bounds the evaluation engine's parallelism (0 = GOMAXPROCS,
	// 1 = fully sequential). It applies both across a method's repetitions
	// and inside each optimization run; per-run seeds are derived from the
	// run index, so results are identical for every worker count.
	Workers int
	// Progress, when non-nil, receives one line per completed run. Any
	// io.Writer works: the harness serializes writes from concurrent
	// runs, though line order across runs follows completion order.
	Progress io.Writer
}

// Full returns the paper-scale configuration.
func Full() Config {
	return Config{Runs: 10, RefSamples: 50000, MaxGens: 300, Seed: 2010}
}

// Quick returns a reduced configuration for tests and benchmarks.
func Quick() Config {
	return Config{Runs: 3, RefSamples: 20000, MaxGens: 150, Seed: 2010}
}

// MethodSpec names one compared method.
type MethodSpec struct {
	// Label is the table row name ("500 simulations (AS+LHS)", "MOHECO"...).
	Label string
	// Method selects the optimizer variant.
	Method core.Method
	// FixedSims is the per-candidate budget of fixed-budget rows.
	FixedSims int
	// MaxSims is the stage-2 / reporting budget.
	MaxSims int
}

// Example1Methods returns the five rows of Tables 1–2.
func Example1Methods() []MethodSpec {
	return []MethodSpec{
		{Label: "300 simulations (AS+LHS)", Method: core.MethodFixedBudget, FixedSims: 300, MaxSims: 300},
		{Label: "500 simulations (AS+LHS)", Method: core.MethodFixedBudget, FixedSims: 500, MaxSims: 500},
		{Label: "700 simulations (AS+LHS)", Method: core.MethodFixedBudget, FixedSims: 700, MaxSims: 700},
		{Label: "OO+AS+LHS", Method: core.MethodOOOnly, MaxSims: 500},
		{Label: "MOHECO", Method: core.MethodMOHECO, MaxSims: 500},
	}
}

// Example2Methods returns the three rows of Tables 3–4.
func Example2Methods() []MethodSpec {
	return []MethodSpec{
		{Label: "300 simulations (AS+LHS)", Method: core.MethodFixedBudget, FixedSims: 300, MaxSims: 300},
		{Label: "500 simulations (AS+LHS)", Method: core.MethodFixedBudget, FixedSims: 500, MaxSims: 500},
		{Label: "MOHECO", Method: core.MethodMOHECO, MaxSims: 500},
	}
}

// RunStat is one optimization run's scored outcome.
type RunStat struct {
	Seed        uint64
	Deviation   float64 // |reported − reference yield|
	Sims        int64   // total simulator invocations
	Yield       float64 // reported
	RefYield    float64 // 50k-sample reference
	Generations int
	Feasible    bool
	StopReason  string
}

// MethodResult aggregates one method's runs.
type MethodResult struct {
	Label     string
	Runs      []RunStat
	Feasible  int           // runs that found a feasible design
	Deviation stats.Summary // of |reported − reference|, feasible runs only
	Sims      stats.Summary // of total simulation counts
}

// TableResult holds one experiment table (a deviation table and a cost
// table share the same runs).
type TableResult struct {
	Name    string
	Problem string
	Methods []MethodResult
}

// RunTable executes every method for cfg.Runs repetitions on the problem
// and scores each run's design against a cfg.RefSamples reference.
func RunTable(name string, p problem.Problem, methods []MethodSpec, cfg Config) (*TableResult, error) {
	rows := make([]row, len(methods))
	for mi, spec := range methods {
		rows[mi] = row{
			label:   spec.Label,
			problem: p,
			edit: func(o *core.Options) {
				o.Method, o.MaxSims, o.FixedSims = spec.Method, spec.MaxSims, spec.FixedSims
			},
			seedKey: []uint64{uint64(mi)},
			refKey:  []uint64{0x4ef, uint64(mi)},
		}
	}
	ms, err := runGrid(name, rows, cfg)
	if err != nil {
		return nil, err
	}
	return &TableResult{Name: name, Problem: p.Name(), Methods: ms}, nil
}

// RenderDeviation writes the Table 1/3 style rows (yield deviation from the
// reference estimate, in percent).
func (t *TableResult) RenderDeviation(w io.Writer) {
	fmt.Fprintf(w, "%s — deviation of reported yield from %s reference (%%)\n", t.Name, t.Problem)
	fmt.Fprintf(w, "%-28s %8s %8s %8s %10s\n", "method", "best", "worst", "average", "variance")
	for _, m := range t.Methods {
		d := m.Deviation
		fmt.Fprintf(w, "%-28s %7.2f%% %7.2f%% %7.2f%% %10.2e\n",
			m.Label, 100*d.Best, 100*d.Worst, 100*d.Average, d.Variance)
	}
}

// RenderSims writes the Table 2/4 style rows (total simulation counts).
func (t *TableResult) RenderSims(w io.Writer) {
	fmt.Fprintf(w, "%s — total number of simulations (%s)\n", t.Name, t.Problem)
	fmt.Fprintf(w, "%-28s %10s %10s %10s %12s\n", "method", "best", "worst", "average", "variance")
	for _, m := range t.Methods {
		s := m.Sims
		fmt.Fprintf(w, "%-28s %10.0f %10.0f %10.0f %12.3e\n",
			m.Label, s.Best, s.Worst, s.Average, s.Variance)
	}
	// The paper's headline ratio: MOHECO vs the 500-simulation method.
	var fixed500, moheco, ooOnly float64
	for _, m := range t.Methods {
		switch m.Label {
		case "500 simulations (AS+LHS)":
			fixed500 = m.Sims.Average
		case "MOHECO":
			moheco = m.Sims.Average
		case "OO+AS+LHS":
			ooOnly = m.Sims.Average
		}
	}
	if fixed500 > 0 && moheco > 0 {
		fmt.Fprintf(w, "MOHECO / 500-sim AS+LHS cost ratio: %.2f%%\n", 100*moheco/fixed500)
	}
	if fixed500 > 0 && ooOnly > 0 {
		fmt.Fprintf(w, "OO+AS+LHS / 500-sim AS+LHS cost ratio: %.2f%%\n", 100*ooOnly/fixed500)
	}
}

// scenarioProblem resolves one of the harness's fixed workloads through
// the scenario registry — the same lookup the command-line tools use, so
// the harness exercises exactly the problems a `-problem` flag reaches.
func scenarioProblem(name string) problem.Problem {
	return scenario.MustGet(name).New()
}

// Table1and2 runs the example-1 experiment behind Tables 1 and 2.
func Table1and2(cfg Config) (*TableResult, error) {
	return RunTable("Tables 1-2", scenarioProblem("foldedcascode"), Example1Methods(), cfg)
}

// Table3and4 runs the example-2 experiment behind Tables 3 and 4.
func Table3and4(cfg Config) (*TableResult, error) {
	cfg.MaxGens = max(cfg.MaxGens, 250)
	return RunTable("Tables 3-4", scenarioProblem("telescopic"), Example2Methods(), cfg)
}

// RenderFig6 prints the two series of Fig. 6 (average deviation and average
// simulation count per method) from the example-1 table.
func RenderFig6(t *TableResult, w io.Writer) {
	fmt.Fprintf(w, "Fig. 6 — average yield deviation and simulation count per method (%s)\n", t.Problem)
	fmt.Fprintf(w, "%-28s %14s %14s\n", "method", "avg deviation", "avg sims")
	for _, m := range t.Methods {
		fmt.Fprintf(w, "%-28s %13.2f%% %14.0f\n", m.Label, 100*m.Deviation.Average, m.Sims.Average)
	}
}

// RunRSB reproduces §3.4: record a typical MOHECO run on example 1, then
// train the NN response surface incrementally and measure next-iteration
// prediction error.
func RunRSB(cfg Config) (*rsb.Result, error) {
	p := scenarioProblem("foldedcascode")
	opts := cfg.mohecoOptions(randx.DeriveSeed(cfg.Seed, 0x5b), cfg.Workers)
	opts.RecordPopulations = true
	res, err := core.Optimize(p, opts)
	if err != nil {
		return nil, err
	}
	return rsb.Run(p, res.History, 20, cfg.Seed, 2)
}

// RenderRSB prints the §3.4 comparison.
func RenderRSB(r *rsb.Result, w io.Writer) {
	fmt.Fprintf(w, "§3.4 — NN response surface (%d hidden, LM) on %s\n", r.Hidden, r.Problem)
	fmt.Fprintf(w, "%6s %12s %11s %12s %12s\n", "gen", "train pts", "test pts", "train RMS", "predict RMS")
	for _, c := range r.Checkpoints {
		fmt.Fprintf(w, "%6d %12d %11d %11.2f%% %11.2f%%\n",
			c.Gen, c.TrainPoints, c.TestPoints, 100*c.TrainRMS, 100*c.RMS)
	}
	fmt.Fprintf(w, "final prediction RMS error: %.2f%% (paper: 6.86%% after 50 iterations)\n", 100*r.FinalRMS)
}
