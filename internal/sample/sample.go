// Package sample generates the Monte-Carlo sample plans used for yield
// estimation: primitive Monte Carlo (PMC) and Latin hypercube sampling (LHS,
// Stein 1987), both over the standard-normal space N(0, I)^dim in which the
// process-variation model is expressed.
//
// The paper uses LHS as a drop-in replacement for PMC within every compared
// method; a Sampler here is likewise a plug-in of the yield estimator.
package sample

import (
	"fmt"
	"math"
	"strings"

	"github.com/eda-go/moheco/internal/randx"
)

// Sampler draws n points from N(0, I)^dim.
type Sampler interface {
	// Draw appends n fresh dim-dimensional standard-normal vectors.
	// Implementations must be deterministic given their stream.
	Draw(rng *randx.Stream, n, dim int) [][]float64
	// Name identifies the plan ("PMC", "LHS") in experiment reports.
	Name() string
}

// PMC is primitive Monte Carlo: independent N(0,1) draws per coordinate.
type PMC struct{}

// Name implements Sampler.
func (PMC) Name() string { return "PMC" }

// Draw implements Sampler.
func (PMC) Draw(rng *randx.Stream, n, dim int) [][]float64 {
	if n < 0 || dim < 0 {
		panic(fmt.Sprintf("sample: invalid plan %dx%d", n, dim))
	}
	out := NewPlan(n, dim)
	PMC{}.Fill(rng, out)
	return out
}

// Fill overwrites every row of pts with fresh draws, row by row. PMC rows
// are independent and drawn in order, so filling one buffer block after
// block yields exactly the rows of a single Draw over all the blocks — the
// way a caller streams a large plan through a small buffer.
func (PMC) Fill(rng *randx.Stream, pts [][]float64) {
	for _, row := range pts {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
}

// NewPlan returns an all-zero n×dim plan whose rows share one backing
// array.
func NewPlan(n, dim int) [][]float64 {
	out, _ := newPlan(n, dim)
	return out
}

// newPlan is NewPlan that also returns the backing array, row after row.
func newPlan(n, dim int) ([][]float64, []float64) {
	out := make([][]float64, n)
	flat := make([]float64, n*dim)
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim]
	}
	return out, flat
}

// quantiles maps a plan's backing array from (0,1) to N(0,1) in place. It
// is a variable only so that tests can swap in the scalar loop and check
// both randx.NormQuantiles paths against the per-coordinate oracle.
var quantiles = randx.NormQuantiles

// LHS is Latin hypercube sampling: each of the n strata of every coordinate
// is hit exactly once, with independent random permutations per coordinate
// and uniform jitter within each stratum, mapped through the normal quantile.
// LHS reduces the variance of the yield estimator versus PMC at equal n.
type LHS struct{}

// Name implements Sampler.
func (LHS) Name() string { return "LHS" }

// Draw implements Sampler.
func (LHS) Draw(rng *randx.Stream, n, dim int) [][]float64 {
	if n < 0 || dim < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("sample: invalid plan %dx%d", n, dim))
	}
	out, flat := newPlan(n, dim)
	if n == 0 {
		return out
	}
	// One permutation buffer serves every coordinate: it is refilled with
	// rand.Perm's exact swap sequence, so the stream and the points are
	// those of a fresh rng.Perm(n) per coordinate. The stratified u values
	// go into the plan first; one quantile pass over the backing array then
	// maps them all.
	perm := newPermSteps(n)
	for j := 0; j < dim; j++ {
		perm.shuffle(rng)
		for i := 0; i < n; i++ {
			// Stratum perm[i] of [0,1), jittered.
			u := (float64(perm[i].perm) + rng.Float64()) / float64(n)
			if u <= 0 {
				u = 0.5 / float64(n)
			}
			if u >= 1 {
				u = 1 - 0.5/float64(n)
			}
			flat[i*dim+j] = u
		}
	}
	quantiles(flat)
	return out
}

// Names returns the canonical sampler names ByName accepts (each also
// accepted in its display capitalization). Command-line usage strings are
// built from this list, so the flag help and the error below can never
// drift from the switch.
func Names() []string { return []string{"pmc", "lhs", "halton"} }

// ByName returns the sampler registered under name ("PMC", "LHS" or
// "Halton", case per Names or per the sampler's display name). The error
// for an unknown name lists every valid one, so a tool's message is
// self-serving.
func ByName(name string) (Sampler, error) {
	switch name {
	case "PMC", "pmc":
		return PMC{}, nil
	case "LHS", "lhs":
		return LHS{}, nil
	case "Halton", "halton":
		return Halton{}, nil
	default:
		return nil, fmt.Errorf("sample: unknown sampler %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
}
