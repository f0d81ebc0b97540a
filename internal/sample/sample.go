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
func (p PMC) Draw(rng *randx.Stream, n, dim int) [][]float64 {
	return p.drawInto(rng, n, dim, new(Buffer))
}

func (PMC) drawInto(rng *randx.Stream, n, dim int, buf *Buffer) [][]float64 {
	if n < 0 || dim < 0 {
		panic(fmt.Sprintf("sample: invalid plan %dx%d", n, dim))
	}
	out, _ := buf.plan(n, dim)
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
	out, _ := new(Buffer).plan(n, dim)
	return out
}

// Buffer is reusable storage for sample plans: the rows, their backing
// array and the LHS scratch. A caller that draws plan after plan keeps a
// Buffer and draws through DrawInto, so its steady state allocates nothing
// per plan. The zero value is ready to use; a Buffer serves one draw at a
// time.
type Buffer struct {
	rows [][]float64
	flat []float64
	perm permSteps // LHS permutation buffer; grows, entry i never changes
	blk  []int64   // LHS per-coordinate block of stream values
}

// plan returns an n×dim plan over b's storage and its backing array, row
// after row. The contents are left over from earlier draws; every sampler
// overwrites each coordinate.
func (b *Buffer) plan(n, dim int) ([][]float64, []float64) {
	if cap(b.flat) < n*dim {
		b.flat = make([]float64, n*dim)
	}
	if cap(b.rows) < n {
		b.rows = make([][]float64, n)
	}
	out, flat := b.rows[:n], b.flat[:n*dim]
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim]
	}
	return out, flat
}

// drawer is a Sampler that can draw into a Buffer.
type drawer interface {
	drawInto(rng *randx.Stream, n, dim int, buf *Buffer) [][]float64
}

// DrawInto returns s.Draw(rng, n, dim), bit for bit and with the same
// stream consumption, drawn into buf's storage. The plan is valid until
// the next draw into buf. A Sampler outside this package takes its own
// Draw.
func DrawInto(s Sampler, rng *randx.Stream, n, dim int, buf *Buffer) [][]float64 {
	if d, ok := s.(drawer); ok {
		return d.drawInto(rng, n, dim, buf)
	}
	return s.Draw(rng, n, dim)
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
func (l LHS) Draw(rng *randx.Stream, n, dim int) [][]float64 {
	return l.drawInto(rng, n, dim, new(Buffer))
}

func (LHS) drawInto(rng *randx.Stream, n, dim int, buf *Buffer) [][]float64 {
	return lhsDraw(rng, n, dim, buf)
}

// int63Source is the stream an LHS plan reads: value by value, and a block
// at a time. *randx.Stream is the one implementation outside tests, which
// script the values to reach the block reader's rare paths.
type int63Source interface {
	Int63() int64
	Int63s(dst []int64)
}

// lhsDraw draws an LHS plan from src into buf. Per coordinate the plan
// consumes, in order, rand.Perm(n)'s values for the shuffle, then one
// rand.Float64 per stratum for the jitter: at least 2n values, exactly 2n
// unless a shuffle step rejects or a jitter value rounds to 1. So each
// coordinate reads its 2n values as one block, and the rare extra value
// comes from the stream after the block, which is where the value-by-value
// plan would have found it too.
func lhsDraw(src int63Source, n, dim int, buf *Buffer) [][]float64 {
	if n < 0 || dim < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("sample: invalid plan %dx%d", n, dim))
	}
	out, flat := buf.plan(n, dim)
	if n == 0 {
		return out
	}
	// One permutation buffer serves every coordinate: it is refilled with
	// rand.Perm's exact swap sequence, so the stream and the points are
	// those of a fresh rng.Perm(n) per coordinate. The stratified u values
	// go into the plan first; one quantile pass over the backing array then
	// maps them all.
	perm := buf.permSteps(n)
	if cap(buf.blk) < 2*n {
		buf.blk = make([]int64, 2*n)
	}
	blk := buf.blk[:2*n]
	for j := 0; j < dim; j++ {
		src.Int63s(blk)
		vals := values{blk, src}
		pos := perm.shuffle(vals)
		for i := 0; i < n; i++ {
			// rand.Float64: a value that rounds to 1 is redrawn.
			f := float64(vals.at(pos)) / (1 << 63)
			pos++
			for f == 1 {
				f = float64(vals.at(pos)) / (1 << 63)
				pos++
			}
			// Stratum perm[i] of [0,1), jittered.
			u := (float64(perm[i].perm) + f) / float64(n)
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

// values is one coordinate's view of the stream: its block, then the
// stream's own values past the block. The reads go in order, value pos
// after value pos−1, so past the block the next stream value is value pos.
// The position lives in the callers' registers, not in the view.
type values struct {
	blk []int64
	src int63Source
}

// at returns value pos.
func (v values) at(pos int) int64 {
	if pos < len(v.blk) {
		return v.blk[pos]
	}
	return v.src.Int63()
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
