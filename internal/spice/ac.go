package spice

import (
	"fmt"
	"math"

	"github.com/eda-go/moheco/internal/linalg"
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
// system.
func (e *Engine) AC(op *OPResult, freqs []float64) (*ACResult, error) {
	nodes := e.ckt.NumNodes()
	flat, err := e.sweep(op, freqs, 0, nodes, false)
	if err != nil {
		return nil, err
	}
	return newACResult(freqs, flat, nodes), nil
}

// ACProbe sweeps like AC but records only the probed node's phasors, one
// per solved point; with p.StopAtUnity the returned slice is the prefix of
// the sweep up to the first unity crossing (the whole range when the node
// never crosses), so the measures run on (freqs[:len(h)], h).
func (e *Engine) ACProbe(op *OPResult, freqs []float64, p Probe) ([]complex128, error) {
	e.checkProbe(p)
	return e.sweep(op, freqs, p.Node, p.Node+1, p.StopAtUnity)
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

// record copies the phasors of nodes [lo, lo+len(dst)) from the solution
// x (K lanes in SoA layout, lane l) into dst; ground stays zero.
func record(dst, x []complex128, lo, k, l int) {
	for j := range dst {
		if nd := lo + j; nd > 0 {
			dst[j] = x[row(nd)*k+l]
		}
	}
}

// sweep is the scalar AC sweep loop. It records the phasors of nodes
// [lo, hi) into one flat slice, point k at [k*(hi-lo), (k+1)*(hi-lo)), and
// with stop (one node) ends after the first point at which that node falls
// through unity gain, returning the recorded prefix.
//
// The linearized MNA system is affine in frequency — Y(ω) = G + jω·C with a
// frequency-independent right-hand side — so the devices are evaluated and
// stamped (through the engine's cached stamp indices) into the real G and C
// parts once per sweep, and each frequency point only assembles the complex
// values from them and solves. On the sparse backend the per-point assembly
// walks the nonzeros instead of n² entries, and every point's factorization
// reuses the symbolic analysis done in New; DC and AC share one pattern
// because the plan enumerates their union.
func (e *Engine) sweep(op *OPResult, freqs []float64, lo, hi int, stop bool) ([]complex128, error) {
	n := e.size
	var gv, cv []float64 // stamped value arrays with trailing write-off slot
	if e.sym != nil {
		if e.spG == nil {
			// AC scratch, allocated on the first sweep and reused for the
			// engine's lifetime (one engine serves a whole sample batch).
			e.spG = sparse.NewMatrix[float64](e.sym)
			e.spC = sparse.NewMatrix[float64](e.sym)
			e.spY = sparse.NewMatrix[complex128](e.sym)
			e.acRHS = make([]complex128, n+1)
			e.acX = make([]complex128, n)
		}
		e.spG.Zero()
		e.spC.Zero()
		gv, cv = e.spG.Values(), e.spC.Values()
	} else {
		if e.acGv == nil {
			// Plain stamped value arrays with the trailing write-off slot;
			// only the per-point assembled system needs a matrix type.
			e.acGv = make([]float64, n*n+1)
			e.acCv = make([]float64, n*n+1)
			e.acY = linalg.NewCMatrix(n, n)
			e.acRHS = make([]complex128, n+1)
			e.acX = make([]complex128, n)
		}
		for i := range e.acGv {
			e.acGv[i] = 0
			e.acCv[i] = 0
		}
		gv, cv = e.acGv, e.acCv
	}
	rhs0 := e.acRHS
	for i := range rhs0 {
		rhs0[i] = 0
	}
	e.plan.stampAC(gv, cv, rhs0, 1, 0, op, e.opts.GminFinal)

	w := hi - lo
	out := make([]complex128, len(freqs)*w)
	x := e.acX
	for k, f := range freqs {
		omega := 2 * math.Pi * f
		copy(x, rhs0[:n])
		var err error
		if e.sym != nil {
			yv := e.spY.Values()
			for i := range yv {
				yv[i] = complex(gv[i], omega*cv[i])
			}
			if err = e.spY.Factorize(); err == nil {
				err = e.spY.Solve(x)
			}
		} else {
			Y := e.acY
			for i := range Y.Data {
				Y.Data[i] = complex(gv[i], omega*cv[i])
			}
			err = linalg.CSolveInPlace(Y, x)
		}
		mFactorizations.Inc() // one complex factorization per attempted point
		if err != nil {
			return nil, fmt.Errorf("spice: AC solve at %g Hz: %w", f, err)
		}
		record(out[k*w:(k+1)*w], x, lo, 1, 0)
		if stop && k > 0 && measure.FallsThroughUnity(out[k-1], out[k]) {
			return out[:k+1], nil
		}
	}
	return out, nil
}
