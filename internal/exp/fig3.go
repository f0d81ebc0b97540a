package exp

import (
	"errors"
	"fmt"
	"io"

	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/randx"
)

// Fig3Result captures the paper's Fig. 3: how the OCBA-driven first stage
// distributes simulations inside one typical population of example 1.
type Fig3Result struct {
	// Gen is the generation the population snapshot was taken from.
	Gen int
	// Per-candidate data (feasible candidates of that generation).
	Yields  []float64
	Samples []int
	Sims    []int
	// Aggregates matching the paper's narration: candidates with yield
	// above 70% (share of population, share of simulations) and below 40%.
	HighFrac, HighSimShare float64
	LowFrac, LowSimShare   float64
	// TotalSims is the stage's simulation count; ASLHSEquivalent is what
	// the 500-simulation AS+LHS method would have spent on the same
	// population; Ratio is their quotient (paper: ≈ 11%).
	TotalSims       int
	ASLHSEquivalent int
	Ratio           float64
}

// RunFig3 runs a MOHECO optimization on example 1 and extracts the most
// yield-diverse population snapshot — the paper's "typical population".
func RunFig3(cfg Config) (*Fig3Result, error) {
	p := scenarioProblem("foldedcascode")
	opts := cfg.mohecoOptions(randx.DeriveSeed(cfg.Seed, 0xf13), cfg.Workers)
	opts.RecordPopulations = true
	res, err := core.Optimize(p, opts)
	if err != nil {
		return nil, err
	}
	// Pick the generation with the most feasible candidates and real yield
	// spread: the regime Fig. 3 illustrates.
	bestIdx, bestScore := -1, -1.0
	for i, r := range res.History {
		if len(r.Yields) < 5 {
			continue
		}
		lo, hi := 1.0, 0.0
		for _, y := range r.Yields {
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
		score := float64(len(r.Yields)) * (hi - lo)
		if score > bestScore {
			bestScore, bestIdx = score, i
		}
	}
	if bestIdx < 0 {
		return nil, errors.New("exp: no generation with enough feasible candidates for Fig. 3")
	}
	r := res.History[bestIdx]
	out := &Fig3Result{
		Gen:     r.Gen,
		Yields:  r.Yields,
		Samples: r.SampleCounts,
		Sims:    r.SimCounts,
	}
	n := len(r.Yields)
	var high, low, highSims, lowSims, tot int
	for i, y := range r.Yields {
		tot += r.SimCounts[i]
		if y > 0.7 {
			high++
			highSims += r.SimCounts[i]
		}
		if y < 0.4 {
			low++
			lowSims += r.SimCounts[i]
		}
	}
	out.TotalSims = tot
	if tot > 0 {
		out.HighSimShare = float64(highSims) / float64(tot)
		out.LowSimShare = float64(lowSims) / float64(tot)
	}
	out.HighFrac = float64(high) / float64(n)
	out.LowFrac = float64(low) / float64(n)
	// AS+LHS equivalent: 500 samples per feasible candidate at the same
	// acceptance-sampling efficiency observed in this population.
	eff := 1.0
	var samples int
	for i := range r.SampleCounts {
		samples += r.SampleCounts[i]
	}
	if samples > 0 {
		eff = float64(tot) / float64(samples)
	}
	out.ASLHSEquivalent = int(500 * float64(n) * eff)
	if out.ASLHSEquivalent > 0 {
		out.Ratio = float64(tot) / float64(out.ASLHSEquivalent)
	}
	return out, nil
}

// Render prints the Fig. 3 summary and per-candidate breakdown.
func (r *Fig3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 3 — OCBA allocation in one typical population (generation %d)\n", r.Gen)
	fmt.Fprintf(w, "%8s %10s %8s\n", "yield", "samples", "sims")
	for i, y := range r.Yields {
		fmt.Fprintf(w, "%7.1f%% %10d %8d\n", 100*y, r.Samples[i], r.Sims[i])
	}
	fmt.Fprintf(w, "yield > 70%%: %4.0f%% of population, %4.0f%% of simulations\n",
		100*r.HighFrac, 100*r.HighSimShare)
	fmt.Fprintf(w, "yield < 40%%: %4.0f%% of population, %4.0f%% of simulations\n",
		100*r.LowFrac, 100*r.LowSimShare)
	fmt.Fprintf(w, "total simulations: %d (%.0f%% of the AS+LHS equivalent %d)\n",
		r.TotalSims, 100*r.Ratio, r.ASLHSEquivalent)
}
