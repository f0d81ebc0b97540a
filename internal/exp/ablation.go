package exp

import (
	"fmt"
	"io"

	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/stats"
)

// AblationVariant is one configuration of the ablation study: MOHECO with
// one design choice altered.
type AblationVariant struct {
	Label  string
	Mutate func(*core.Options)
}

// AblationVariants returns the design-choice ablations DESIGN.md calls out:
// the sampler (LHS vs PMC), acceptance sampling on/off, the memetic
// operator on/off, and the stage-2 promotion threshold.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{Label: "MOHECO (baseline)", Mutate: func(o *core.Options) {}},
		{Label: "PMC instead of LHS", Mutate: func(o *core.Options) { o.Sampler = sample.PMC{} }},
		{Label: "Halton instead of LHS", Mutate: func(o *core.Options) { o.Sampler = sample.Halton{} }},
		{Label: "no acceptance sampling", Mutate: func(o *core.Options) { o.AcceptanceSampling = false }},
		{Label: "no memetic operator", Mutate: func(o *core.Options) { o.Method = core.MethodOOOnly }},
		{Label: "promotion threshold 0.90", Mutate: func(o *core.Options) { o.Threshold = 0.90 }},
		{Label: "promotion threshold 0.99", Mutate: func(o *core.Options) { o.Threshold = 0.99 }},
	}
}

// AblationRow aggregates one variant's runs.
type AblationRow struct {
	Label     string
	Deviation stats.Summary
	Sims      stats.Summary
	Feasible  int // runs that found a feasible design
}

// AblationResult is the full study.
type AblationResult struct {
	Problem string
	Rows    []AblationRow
	Runs    int
}

// RunAblation executes every variant on example 1 for cfg.Runs
// repetitions. Every variant runs from the same seeds: a paired comparison.
func RunAblation(cfg Config) (*AblationResult, error) {
	p := scenarioProblem("foldedcascode")
	variants := AblationVariants()
	rows := make([]row, len(variants))
	for vi, v := range variants {
		rows[vi] = row{
			label:   v.Label,
			problem: p,
			edit:    v.Mutate,
			seedKey: []uint64{0xab},
			refKey:  []uint64{0xab5, uint64(vi)},
		}
	}
	ms, err := runGrid("ablation", rows, cfg)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Problem: p.Name(), Runs: cfg.Runs}
	for _, m := range ms {
		out.Rows = append(out.Rows, AblationRow{
			Label:     m.Label,
			Deviation: m.Deviation,
			Sims:      m.Sims,
			Feasible:  m.Feasible,
		})
	}
	return out, nil
}

// Render prints the ablation study.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation study — MOHECO design choices on %s (%d runs each)\n", r.Problem, r.Runs)
	fmt.Fprintf(w, "%-28s %12s %12s %10s\n", "variant", "avg dev", "avg sims", "feasible")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-28s %11.2f%% %12.0f %7d/%d\n",
			row.Label, 100*row.Deviation.Average, row.Sims.Average, row.Feasible, r.Runs)
	}
}
