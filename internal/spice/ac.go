package spice

import (
	"fmt"
	"math"
	"slices"

	"github.com/eda-go/moheco/internal/linalg/sparse"
	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/netlist"
)

// ACResult holds the small-signal node phasors across a frequency sweep.
type ACResult struct {
	Freqs []float64
	// V[k][node] is the phasor of the node at Freqs[k], indexed by netlist
	// node id (ground = 0).
	V [][]complex128
}

// VNode returns the phasor sweep of the named node.
func (r *ACResult) VNode(c *netlist.Circuit, name string) ([]complex128, error) {
	i, ok := c.FindNode(name)
	if !ok {
		return nil, fmt.Errorf("spice: unknown node %q", name)
	}
	out := make([]complex128, len(r.Freqs))
	for k := range r.Freqs {
		out[k] = r.V[k][i]
	}
	return out, nil
}

// LogSpace returns points per decade log-spaced frequencies in [fStart, fStop].
func LogSpace(fStart, fStop float64, perDecade int) []float64 {
	if fStart <= 0 || fStop <= fStart || perDecade < 1 {
		return nil
	}
	var out []float64
	step := math.Pow(10, 1/float64(perDecade))
	for f := fStart; f <= fStop*1.0000001; f *= step {
		out = append(out, f)
	}
	return out
}

// Probe selects what a probed AC sweep records: the phasors of one node
// and, with StopAtUnity, only the prefix of the sweep that ends at the first
// point where the node's magnitude has fallen from ≥ 1 to < 1
// (measure.FallsThroughUnity). That prefix is everything the DC-gain,
// unity-crossing and phase-margin measures read; the gain-margin and -3 dB
// bandwidth measures may read beyond it and need the full range.
type Probe struct {
	Node        int // netlist node id (ground = 0)
	StopAtUnity bool
}

// AC performs a small-signal sweep at the operating point op, recording
// every node over the full range. MOSFETs are linearized with gm, gds, gmb
// and their capacitances; capacitors become jωC; AC sources drive the
// system. It is the one-lane ACBatch; a circuit with no MOSFETs reads
// nothing from op, which may then be nil.
func (e *Engine) AC(op *OPResult, freqs []float64) (*ACResult, error) {
	res, errs := e.ACBatch(oneOP(op), freqs, noLane)
	return res[0], errs[0]
}

// ACProbe sweeps like AC but records only the probed node's phasors, one
// per solved point; with p.StopAtUnity the returned slice is the prefix of
// the sweep up to the first unity crossing (the whole range when the node
// never crosses), so the measures run on (freqs[:len(h)], h). It is the
// one-lane ACBatchProbe, and its record is a copy the caller owns.
func (e *Engine) ACProbe(op *OPResult, freqs []float64, p Probe) ([]complex128, error) {
	hs, errs := e.ACBatchProbe(oneOP(op), freqs, p, noLane)
	return slices.Clone(hs[0]), errs[0]
}

// oneOP is the one-lane operating-point group of a point-wise sweep. A nil
// op sweeps an empty operating point rather than skipping the lane: only
// MOSFET linearization reads the operating point.
func oneOP(op *OPResult) []*OPResult {
	if op == nil {
		op = &OPResult{}
	}
	return []*OPResult{op}
}

// ACBatch runs the small-signal sweep of up to len(ops) samples in lockstep,
// recording every node over the full range: per lane the G/C split and
// drive are stamped once (under the lane's LaneSetter state, linearized at
// its own operating point), and every frequency point assembles and factors
// all lanes through one traversal. ops[l] == nil skips lane l (a sample
// whose DC solve failed); a lane whose complex system is singular at some
// frequency reports its AC error without disturbing the others. Each lane
// is bit-identical to AC on its sample. The all-node results are the
// caller's.
func (e *Engine) ACBatch(ops []*OPResult, freqs []float64, set LaneSetter) ([]*ACResult, []error) {
	nodes := e.ckt.NumNodes()
	flats, errs := e.sweep(ops, freqs, 0, nodes, false, true, set)
	res := make([]*ACResult, len(ops))
	for l, flat := range flats {
		if flat != nil {
			res[l] = newACResult(freqs, flat, nodes)
		}
	}
	return res, slices.Clone(errs)
}

// ACBatchProbe is the lockstep ACProbe: h[l] holds lane l's probed
// phasors, bit-identical to ACProbe on that sample. With p.StopAtUnity a
// lane retires at its own unity crossing and the group stops once every
// lane has retired or failed. The records and both slices are the
// engine's: they stay valid until the next probed sweep of this width.
func (e *Engine) ACBatchProbe(ops []*OPResult, freqs []float64, p Probe, set LaneSetter) ([][]complex128, []error) {
	e.checkProbe(p)
	return e.sweep(ops, freqs, p.Node, p.Node+1, p.StopAtUnity, false, set)
}

// checkProbe panics on a probe node outside the circuit: node ids come from
// the circuit itself (FindNode), so only a bug produces one, and recording
// it unchecked would silently read a branch current or run off the
// solution vector.
func (e *Engine) checkProbe(p Probe) {
	if p.Node < 0 || p.Node >= e.ckt.NumNodes() {
		panic(fmt.Sprintf("spice: probe node %d outside the circuit's %d nodes", p.Node, e.ckt.NumNodes()))
	}
}

// newACResult wraps a flat all-node sweep (point k at [k*nodes, (k+1)*nodes))
// as an ACResult.
func newACResult(freqs []float64, flat []complex128, nodes int) *ACResult {
	res := &ACResult{Freqs: freqs, V: make([][]complex128, len(freqs))}
	for k := range res.V {
		res.V[k] = flat[k*nodes : (k+1)*nodes]
	}
	return res
}

// reachOf returns the substitution reach of the solution components of
// nodes [lo, hi), ground excluded. The engine keeps the last one: a
// testbench sweeps one probe for its whole lifetime.
func (e *Engine) reachOf(lo, hi int) *sparse.Reach {
	if e.reach == nil || e.reachNodes != [2]int{lo, hi} {
		comps := make([]int, 0, hi-lo)
		for nd := max(lo, 1); nd < hi; nd++ {
			comps = append(comps, row(nd))
		}
		e.reach, e.reachNodes = e.sym.Reach(comps...), [2]int{lo, hi}
	}
	return e.reach
}

// record copies the phasors of nodes [lo, lo+len(dst)) from the solution
// x (K lanes in SoA layout, lane l) into dst; ground records zero.
func record(dst, x []complex128, lo, k, l int) {
	for j := range dst {
		dst[j] = 0
		if nd := lo + j; nd > 0 {
			dst[j] = x[row(nd)*k+l]
		}
	}
}

// acScratch is the AC scratch of one group width: the frequency-independent
// G/C split (value arrays in the Jacobian's layout, with its write-off
// slots), the drive, the assembled complex system and its solution, and
// the probed sweeps' per-lane records.
type acScratch struct {
	gv, cv []float64
	rhs    []complex128                    // SoA drive, (size+1)*k
	xc     []complex128                    // SoA solution, size*k
	y0     []complex128                    // pristine ω-independent assembly, complex(gv[i], 0)
	pat    []int32                         // value-array indices whose C lane is not a +0 bit pattern
	pg, pc []float64                       // gv and cv at pat, gathered once per sweep
	Y      *sparse.BatchMatrix[complex128] // system lanes
	yv     []complex128                    // Y's value array
	ge1    []bool                          // per lane: |h| ≥ 1 at the last recorded point (stop sweeps)

	recs [][]complex128 // per lane: probe record storage, grown to the longest sweep
	out  [][]complex128 // the last sweep's per-lane records
	errs []error        // the last sweep's per-lane errors
}

// acFor returns the group's AC scratch, allocated on its first sweep
// and reused for the engine's lifetime.
func (bs *scratch) acFor(e *Engine) *acScratch {
	if bs.ac != nil {
		return bs.ac
	}
	n, k, slots := e.size, bs.k, len(bs.vals)
	ac := &acScratch{
		gv:   make([]float64, slots),
		cv:   make([]float64, slots),
		rhs:  make([]complex128, (n+1)*k),
		xc:   make([]complex128, n*k),
		y0:   make([]complex128, slots),
		pat:  make([]int32, 0, slots),
		pg:   make([]float64, 0, slots),
		pc:   make([]float64, 0, slots),
		ge1:  make([]bool, k),
		Y:    sparse.NewBatchMatrix[complex128](e.sym, k),
		recs: make([][]complex128, k),
		out:  make([][]complex128, k),
		errs: make([]error, k),
	}
	ac.yv = ac.Y.Values()
	bs.ac = ac
	return ac
}

// sweep is the AC sweep loop, over a group of len(ops) lanes. It records
// the phasors of nodes [lo, hi) of each lane into one flat slice, point k
// at [k*(hi-lo), (k+1)*(hi-lo)), and with stop (one node) ends a lane after
// the first point at which that node falls through unity gain, keeping the
// recorded prefix. A lane stops sweeping when it fails (its record is nil
// and its error set); the factorization counter counts only lanes still
// sweeping, the one-lane equivalent of the work done. With own each record
// is a fresh slice the caller keeps; without, it is the lane's reused
// storage. The returned slices are the scratch's either way.
//
// The linearized MNA system is affine in frequency — Y(ω) = G + jω·C with a
// frequency-independent right-hand side — so the devices are evaluated and
// stamped (through the engine's cached stamp indices) into the real G and C
// parts once per sweep, and each frequency point only assembles the complex
// values from them and solves. The per-point assembly walks the nonzeros,
// and every point's factorization reuses the symbolic analysis done in New;
// DC and AC share one pattern because the plan enumerates their union.
func (e *Engine) sweep(ops []*OPResult, freqs []float64, lo, hi int, stop, own bool, set LaneSetter) ([][]complex128, []error) {
	k := len(ops)
	bs := e.scratchFor(k)
	ac := bs.acFor(e)
	out, errs := ac.out, ac.errs
	clear(out)
	clear(errs)
	clear(ac.gv)
	clear(ac.cv)
	clear(ac.rhs)
	st := bs.st
	nLive := 0
	for l := range st {
		st[l].live = ops[l] != nil
		if !st[l].live {
			continue
		}
		nLive++
		set(l)
		e.plan.stampAC(ac.gv, ac.cv, ac.rhs, k, l, ops[l], gminFinal)
	}
	if nLive == 0 {
		return out, errs
	}

	n := e.size
	w := hi - lo
	for l := range st {
		switch {
		case !st[l].live:
		case own:
			out[l] = make([]complex128, len(freqs)*w)
		default:
			if cap(ac.recs[l]) < len(freqs)*w {
				ac.recs[l] = make([]complex128, len(freqs)*w)
			}
			out[l] = ac.recs[l][:len(freqs)*w]
		}
	}
	// Copy+patch assembly: Y(ω) = G + jωC differs from the ω-independent
	// pristine image complex(g, 0) only at entries whose C value is not a
	// positive zero — for every other entry ω·(+0) assembles the pristine
	// bits exactly (any finite ω ≥ 0). Capacitors touch a small fraction of
	// the pattern, so the per-frequency assembly collapses to one block copy
	// plus a short patch loop. Entries holding a negative zero or non-finite
	// C value go on the patch list, keeping the assembled bits identical to
	// the full loop. The patch entries' G and C operands are gathered once
	// into two contiguous arrays, which every point then reads in order.
	for i, g := range ac.gv {
		ac.y0[i] = complex(g, 0)
	}
	pat, pg, pc := ac.pat[:0], ac.pg[:0], ac.pc[:0]
	for i, c := range ac.cv {
		if math.Float64bits(c) != 0 {
			pat = append(pat, int32(i))
			pg = append(pg, ac.gv[i])
			pc = append(pc, c)
		}
	}
	ac.pat, ac.pg, ac.pc = pat, pg, pc
	yv := ac.yv
	// The record needs only the solution components of nodes [lo, hi): a
	// probe substitutes only the rows its one node depends on.
	reach := e.reachOf(lo, hi)
	// The factorization count is summed over the sweep and published once:
	// one contended atomic add per sweep, not per frequency point.
	facts := int64(0)
	for fi, f := range freqs {
		omega := 2 * math.Pi * f
		if omega >= 0 && omega <= math.MaxFloat64 {
			copy(yv, ac.y0)
			for j, i := range pat {
				yv[i] = complex(pg[j], omega*pc[j])
			}
		} else {
			// A negative or non-finite ω multiplies even +0 entries into
			// something else (-0, NaN); assemble the long way.
			for i := range yv {
				yv[i] = complex(ac.gv[i], omega*ac.cv[i])
			}
		}
		copy(ac.xc, ac.rhs[:n*k])
		ac.Y.Factorize()
		serrs := ac.Y.SolveFor(ac.xc, reach)
		facts += int64(nLive) // one per sweeping lane per point
		for l := range st {
			if !st[l].live {
				continue
			}
			if serrs[l] != nil {
				errs[l] = fmt.Errorf("spice: AC solve at %g Hz: %w", f, serrs[l])
				out[l] = nil
				st[l].live = false
				nLive--
				continue
			}
			h := out[l]
			record(h[fi*w:(fi+1)*w], ac.xc, lo, k, l)
			if !stop {
				continue
			}
			falls, ge1 := measure.FallsThroughUnity(fi > 0 && ac.ge1[l], h[fi])
			if falls {
				out[l] = h[:fi+1]
				st[l].live = false
				nLive--
			}
			ac.ge1[l] = ge1
		}
		if nLive == 0 {
			break
		}
	}
	mFactorizations.Add(facts)
	return out, errs
}
