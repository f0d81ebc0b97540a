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
	flats, errs := e.sweep(ops, freqs, 0, nodes, 1, false, true, set)
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
	return e.sweep(ops, freqs, p.Node, p.Node+1, 1, p.StopAtUnity, false, set)
}

// ACBatchBracket is the bracketed probed sweep, the one the testbenches
// take: per lane it solves only the points the DC-gain, unity-crossing and
// phase-margin measures read, and records them as (point, phasor) pairs,
// r[l].At ascending from 0 to the first fall through unity (the last point
// when there is none). Each lane walks every decade's first point (every
// 8th of an 8-per-decade LogSpace) until the walk brackets the fall, then
// bisects that decade down to the fall's two adjacent points; wherever the
// coarse points cannot vouch for the points between them
// (measure.Vouches, a frontier below unity or a failed solve) it reads the
// points between one by one (see walk). Every point is solved as the dense
// sweep solves it, so where the vouched points stand for the points between
// them, as on a smooth response, the measures of r[l] are bit for bit those
// of ACBatchProbe's stop-at-unity prefix, and so is a failing lane's error,
// which names the first point of that prefix whose solve fails. The records
// and both slices are the engine's: they stay valid until the next probed
// sweep of this width; a skipped or failed lane's record is empty.
func (e *Engine) ACBatchBracket(ops []*OPResult, freqs []float64, node int, set LaneSetter) ([]measure.Points, []error) {
	e.checkProbe(Probe{Node: node})
	hs, errs := e.sweep(ops, freqs, node, node+1, coarseStride(freqs), true, false, set)
	ac, n := e.scratchFor(len(ops)).ac, len(freqs)
	if len(ac.ptAt) < len(ops)*n {
		ac.ptAt = make([]int, len(ops)*n)
	}
	for l, h := range hs {
		// Compact the solved points to the front of the lane's record, in
		// place: point i moves to a slot at or before i.
		r := measure.Points{At: ac.ptAt[l*n : l*n], H: h[:0]}
		for i, v := range h {
			if ac.walks[l].seen[i] {
				r.At, r.H = append(r.At, i), append(r.H, v)
			}
		}
		ac.pts[l] = r
	}
	return ac.pts, errs
}

// coarseStride is the bracketed sweep's coarse stride on freqs: the points
// of its first decade, 8 on an 8-per-decade LogSpace. A grid shorter than
// a decade is walked point by point.
func coarseStride(freqs []float64) int {
	for i := 1; i < len(freqs); i++ {
		if freqs[i] >= 10*freqs[0]*(1-1e-9) {
			return i
		}
	}
	return 1
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
// the probed sweeps' per-lane walks and records.
type acScratch struct {
	gv, cv []float64
	rhs    []complex128                    // SoA drive, (size+1)*k
	xc     []complex128                    // SoA solution, size*k
	y0     []complex128                    // pristine ω-independent assembly, complex(gv[i], 0)
	pat    []int32                         // pattern entries with a C lane that is not a +0 bit pattern
	Y      *sparse.BatchMatrix[complex128] // system lanes
	yv     []complex128                    // Y's value array

	walks []walk           // per lane: the points it solves
	seen  []bool           // the walks' seen, lane l at [l*n, (l+1)*n) for n points
	at    []int            // per lane: the point it solves this step
	omega []float64        // per lane: ω at that point
	recs  [][]complex128   // per lane: probe record storage, by point, grown to the longest sweep
	pts   []measure.Points // the last bracketed sweep's per-lane records
	ptAt  []int            // their points, lane l at [l*n, (l+1)*n); the phasors are recs'
	out   [][]complex128   // the last sweep's per-lane records
	errs  []error          // the last sweep's per-lane errors
}

// acFor returns the group's AC scratch, allocated on its first sweep
// and reused for the engine's lifetime.
func (bs *scratch) acFor(e *Engine) *acScratch {
	if bs.ac != nil {
		return bs.ac
	}
	n, k, slots := e.size, bs.k, len(bs.vals)
	ac := &acScratch{
		gv:    make([]float64, slots),
		cv:    make([]float64, slots),
		rhs:   make([]complex128, (n+1)*k),
		xc:    make([]complex128, n*k),
		y0:    make([]complex128, slots),
		pat:   make([]int32, 0, slots/k),
		Y:     sparse.NewBatchMatrix[complex128](e.sym, k),
		walks: make([]walk, k),
		at:    make([]int, k),
		omega: make([]float64, k),
		recs:  make([][]complex128, k),
		pts:   make([]measure.Points, k),
		out:   make([][]complex128, k),
		errs:  make([]error, k),
	}
	ac.yv = ac.Y.Values()
	bs.ac = ac
	return ac
}

// sweep is the AC sweep loop, over a group of len(ops) lanes. It records
// the phasors of nodes [lo, hi) of each lane into one flat slice by point,
// point i at [i*(hi-lo), (i+1)*(hi-lo)), and solves per lane the points its
// walk picks: every point with stride 1, and with stop (one node) only up
// to the first point at which that node falls through unity gain, the
// record cut after it; with a coarse stride, the bracketed walk's points,
// the record cut after the fall and holding phasors only where the walk's
// seen is set. A lane whose walk ends on a failed solve has a nil record
// and its error set; the factorization counter counts only lanes still
// sweeping, the one-lane equivalent of the work done, and the group-points
// counter every K-lane factorization. With own each record is a fresh
// slice the caller keeps; without, it is the lane's reused storage. The
// returned slices are the scratch's either way.
//
// The linearized MNA system is affine in frequency — Y(ω) = G + jω·C with a
// frequency-independent right-hand side — so the devices are evaluated and
// stamped (through the engine's cached stamp indices) into the real G and C
// parts once per sweep, and each step only assembles the complex values
// from them (patchList, assemble) and solves. The lanes of one step may
// solve different points, each at its own ω. Every step's factorization
// reuses the symbolic analysis done in New; DC and AC share one pattern
// because the plan enumerates their union.
func (e *Engine) sweep(ops []*OPResult, freqs []float64, lo, hi, stride int, stop, own bool, set LaneSetter) ([][]complex128, []error) {
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

	n, w := len(freqs), hi-lo
	if len(ac.seen) < k*n {
		ac.seen = make([]bool, k*n)
	}
	for l := range st {
		if !st[l].live {
			continue
		}
		if own {
			out[l] = make([]complex128, n*w)
		} else {
			if cap(ac.recs[l]) < n*w {
				ac.recs[l] = make([]complex128, n*w)
			}
			out[l] = ac.recs[l][:n*w]
		}
		var h []complex128
		if w == 1 {
			h = out[l]
		}
		ac.walks[l].start(h, ac.seen[l*n:(l+1)*n], stride, stop)
	}
	ac.patchList()
	clear(ac.omega)
	// The record needs only the solution components of nodes [lo, hi): a
	// probe substitutes only the rows its one node depends on.
	reach := e.reachOf(lo, hi)
	size := e.size
	// The work counts are summed over the sweep and published once: one
	// contended atomic add per counter per sweep, not per step.
	facts, points := int64(0), int64(0)
	for {
		for l := range st {
			if !st[l].live {
				continue
			}
			i, ok := ac.walks[l].next()
			if !ok {
				st[l].live = false
				nLive--
				continue
			}
			ac.at[l], ac.omega[l] = i, 2*math.Pi*freqs[i]
		}
		if nLive == 0 {
			break
		}
		ac.assemble()
		copy(ac.xc, ac.rhs[:size*k])
		ac.Y.Factorize()
		serrs := ac.Y.SolveFor(ac.xc, reach)
		facts += int64(nLive) // one per sweeping lane per step
		points++
		for l := range st {
			if !st[l].live {
				continue
			}
			i := ac.at[l]
			if serrs[l] != nil {
				ac.walks[l].failAt, ac.walks[l].failErr = i, serrs[l]
				continue
			}
			record(out[l][i*w:(i+1)*w], ac.xc, lo, k, l)
			ac.walks[l].seen[i] = true
		}
	}
	mFactorizations.Add(facts)
	mACGroupPoints.Add(points)
	for l, h := range out {
		if h == nil {
			continue
		}
		wk := &ac.walks[l]
		if wk.end < 0 {
			errs[l] = fmt.Errorf("spice: AC solve at %g Hz: %w", freqs[wk.failAt], wk.failErr)
			out[l] = nil
			continue
		}
		out[l] = h[:wk.end*w]
	}
	return out, errs
}

// patchList makes the sweep's pristine image and patch list from its G/C
// split. Copy+patch assembly: Y(ω) = G + jωC differs from the
// ω-independent pristine image complex(g, 0) only at entries whose C value
// is not a positive zero — for every other entry ω·(+0) assembles the
// pristine bits exactly (any finite ω ≥ 0). Capacitors touch a small
// fraction of the pattern, so the per-step assembly collapses to one block
// copy plus a short patch loop. The patch list holds the pattern entries
// at which any lane's C value is not a positive zero (a negative zero and
// a non-finite value included), and assemble writes all K lanes of each:
// an entry's K value slots are contiguous, and a lane whose C value there
// is +0 assembles its pristine bits either way.
func (ac *acScratch) patchList() {
	k := len(ac.omega)
	for i, g := range ac.gv {
		ac.y0[i] = complex(g, 0)
	}
	pat := ac.pat[:0]
	for t := 0; t*k < len(ac.cv); t++ {
		for _, c := range ac.cv[t*k : (t+1)*k] {
			if math.Float64bits(c) != 0 {
				pat = append(pat, int32(t))
				break
			}
		}
	}
	ac.pat = pat
}

// assemble writes Y(ω) into the system's values, lane l at ω = omega[l],
// bit for bit the full loop complex(gv[i], omega[i mod K]·cv[i]).
func (ac *acScratch) assemble() {
	k, yv := len(ac.omega), ac.yv
	for _, om := range ac.omega {
		if !(om >= 0 && om <= math.MaxFloat64) {
			// A negative or non-finite ω multiplies even +0 entries into
			// something else (-0, NaN); assemble the long way.
			for i := range yv {
				yv[i] = complex(ac.gv[i], ac.omega[i%k]*ac.cv[i])
			}
			return
		}
	}
	copy(yv, ac.y0)
	for _, t := range ac.pat {
		i := int(t) * k
		ys, gs, cs := yv[i:i+k], ac.gv[i:i+k], ac.cv[i:i+k]
		for l, om := range ac.omega {
			ys[l] = complex(gs[l], om*cs[l])
		}
	}
}

// walk is one lane's way through a probed sweep of n points: which point
// it solves next, and when it has solved every point the measures read.
// It reads the solved points as the dense sweep's rule would — the first
// fall through unity ends it (with stop), the first failed solve fails it —
// settling them in order up to its frontier p. A point past p that was
// solved out of order (a coarse or bisection point) is settled only if the
// dense rule is taken to read it the same: it is the point after p, or the
// frontier has |h| ≥ 1, the point too, and measure.Vouches the pair. A
// point below unity past such a frontier brackets a fall, which the walk
// bisects. Any other gap — a failed solve at its end, a point neither ≥ 1
// nor < 1, a magnitude rise or a phase turn over 90° — it walks point by
// point, and so does it from a frontier below unity (a first point below
// unity). With stride 1 it is the dense sweep itself.
type walk struct {
	h       []complex128 // the lane's record by point (read only with stop)
	seen    []bool       // which points of h are solved
	stride  int          // coarse stride: from a frontier at or above unity the next point solved is the next multiple
	stop    bool         // end at the first fall through unity
	p       int          // the frontier: every point up to it is settled (-1: none)
	ge1     bool         // |h[p]| ≥ 1
	dense   int          // gaps ending at or before this point are walked point by point
	last    int          // the highest point next has returned, -1 if none
	failAt  int          // the point whose solve failed, -1 if none
	failErr error        // and its solve's error
	end     int          // once the walk is over: the record's length in points, -1 if the lane failed
}

// start begins a walk over the len(seen) points of record h (nil without
// stop), with seen its storage.
func (w *walk) start(h []complex128, seen []bool, stride int, stop bool) {
	clear(seen)
	*w = walk{h: h, seen: seen, stride: stride, stop: stop, p: -1, dense: -1, last: -1, failAt: -1, end: -1}
}

// next returns the point the lane solves next, or false once the walk is
// over (end set, or -1 for a failure at failAt). Every point it returns is
// unsolved, so a walk solves each point at most once.
func (w *walk) next() (int, bool) {
	n := len(w.seen)
	for {
		// b is the first solved or failed point past the frontier, n if
		// none: every point up to last is one or the other or unsolved.
		b := w.p + 1
		for b <= w.last && !w.seen[b] && b != w.failAt {
			b++
		}
		if b > w.last {
			b = n
		}
		switch {
		case b == n:
			// Nothing solved past the frontier.
			if w.p == n-1 {
				w.end = n
				return 0, false
			}
			if w.ge1 {
				return w.solve(min((w.p/w.stride+1)*w.stride, n-1))
			}
			return w.solve(w.p + 1)
		case b == w.p+1:
			// The point after the frontier: the dense rule reads it.
			if b == w.failAt {
				return 0, false
			}
			if !w.stop {
				w.p = b
				continue
			}
			falls, atLeast := measure.FallsThroughUnity(w.ge1, w.h[b])
			if falls {
				// PhaseMarginOf reads point b-2 too when the crossing
				// rounds to or below point b-1 (measure.NearUnity):
				// solve it, then settle the record again from the start.
				if b >= 2 && !w.seen[b-2] && measure.NearUnity(w.h[b-1]) {
					w.p, w.ge1 = -1, false
					return w.solve(b - 2)
				}
				w.end = b + 1
				return 0, false
			}
			w.p, w.ge1 = b, atLeast
		default:
			// A gap (p, b).
			if b != w.failAt && b > w.dense && w.ge1 {
				below, atLeast := measure.FallsThroughUnity(true, w.h[b])
				if below {
					return w.solve((w.p + b) / 2)
				}
				if atLeast && measure.Vouches(w.h[w.p], w.h[b]) {
					w.p = b
					continue
				}
			}
			w.dense = max(w.dense, b)
			return w.solve(w.p + 1)
		}
	}
}

// solve returns point i as next's pick.
func (w *walk) solve(i int) (int, bool) {
	w.last = max(w.last, i)
	return i, true
}
