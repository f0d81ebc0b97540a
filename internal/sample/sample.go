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
	rows  [][]float64
	flat  []float64
	steps permSteps // LHS Intn(i+1) reductions; grows, entry i never changes
	blk   []int64   // LHS per-coordinate block of stream values
	perm  []int32   // LHS permutation of one coordinate
	idx   []int32   // LHS Intn(i+1) draws of one coordinate
	col   []float64 // LHS column of one coordinate in stratum order, padded to a multiple of 4
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
//
// A coordinate goes through four phases: the block read, the permutation,
// the jitter into a contiguous column, and the quantile pass over that
// column while it is in L1; the column is then scattered into the rows.
// The column holds the coordinate's values in stratum order, so it is
// sorted: the quantile's tail lanes (p < 0.075 or p > 0.925) gather in a
// few groups at its ends instead of reaching most groups of four, and the
// kernel runs its tail branch only there. The quantile is taken value by
// value, so the order changes no bit.
//
// On amd64 with AVX2 every phase but the scatter runs four values per step
// (lhs_amd64.go, and randx's kernels for the block and the quantile); the
// scalar loops are the portable path and take every group of four the
// kernels leave.
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
	// those of a fresh rng.Perm(n) per coordinate.
	steps := buf.permSteps(n)
	blk, perm, idx, col := buf.lhsScratch(n)
	for j := 0; j < dim; j++ {
		src.Int63s(blk)
		vals := values{blk, src}
		pos := steps.permute(perm, idx, vals)
		jitter(col[:n], perm, vals, pos)
		// The pad past n holds a p inside (0, 1), so the quantile kernel
		// runs every group of the column; the scatter never reads it.
		for i := n; i < len(col); i++ {
			col[i] = 0.5
		}
		quantiles(col)
		for i, s := range perm {
			flat[i*dim+j] = col[s] // row i lies in stratum perm[i]
		}
	}
	return out
}

// lhsScratch returns buf's per-coordinate LHS storage for n strata: the
// block of 2n stream values, the permutation and the index pass's draws,
// and the column, padded up to a multiple of four.
func (b *Buffer) lhsScratch(n int) (blk []int64, perm, idx []int32, col []float64) {
	if cap(b.blk) < 2*n {
		b.blk = make([]int64, 2*n)
		b.perm = make([]int32, n)
		b.idx = make([]int32, n)
		b.col = make([]float64, (n+3)&^3)
	}
	return b.blk[:2*n], b.perm[:n], b.idx[:n], b.col[:(n+3)&^3]
}

// jitter writes row i's value, stratum perm[i] of [0,1) jittered by one
// rand.Float64, to u[perm[i]], reading vals from value pos. The AVX2
// kernel takes the groups of four it can decide from the block; from the
// first group holding an f that rounds to 1 (or for the tail) the scalar
// loop takes over.
func jitter(u []float64, perm []int32, vals values, pos int) {
	n := float64(len(u))
	lo := 0.5 / n
	hi := 1 - lo
	i := 0
	if useAVX2 && pos < len(vals.blk) {
		i = jitter4(&u[0], &perm[0], &vals.blk[pos], min(len(u), len(vals.blk)-pos), n, lo, hi)
		pos += i
	}
	for ; i < len(u); i++ {
		// rand.Float64: a value that rounds to 1 is redrawn.
		f := float64(vals.at(pos)) / (1 << 63)
		pos++
		for f == 1 {
			f = float64(vals.at(pos)) / (1 << 63)
			pos++
		}
		v := (float64(perm[i]) + f) / n
		if v <= 0 {
			v = lo
		}
		if v >= 1 {
			v = hi
		}
		u[perm[i]] = v
	}
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
