package spice

import (
	"fmt"
	"math"

	"github.com/eda-go/moheco/internal/linalg/sparse"
	"github.com/eda-go/moheco/internal/measure"
)

// This file implements the lockstep batch solve paths: K Monte-Carlo samples
// of one topology share the engine's symbolic factorization and stamp plan
// and refactorize/solve in lockstep through sparse.BatchMatrix — one index
// traversal drives K value lanes.
//
// # Lane determinism contract
//
// Every lane of a batch DC or AC solve is bit-identical to the scalar solve
// of the same sample: the stamp plan writes lane l through the same cached
// indices (scaled idx·K+l), the lockstep kernel performs the scalar kernel's
// exact floating-point sequence per lane, and the Newton driver mirrors the
// scalar driver stage by stage (direct warm attempt, nodeset attempt, gmin
// ladder) with per-lane convergence freezing. A lane that leaves this happy
// path — a singular Jacobian, a non-converging stage the scalar driver would
// answer with source stepping — is evicted and re-solved through the scalar
// path from scratch; determinism makes the rerun retrace the shared prefix
// bit for bit and continue exactly as a scalar solve of that sample would.
// Results are therefore a pure function of the sample, independent of the
// lane count and of which samples share a batch.

// LaneSetter installs the per-sample model state of one lane — perturbed
// model cards, bias source values — before the engine stamps, seeds or
// post-processes that lane. The engine calls it every time it switches
// lanes; it must be cheap (copy precomputed cards, not recompute them).
type LaneSetter func(lane int)

// batchScratch is the lockstep scratch of the batch DC/AC paths, sized for
// a fixed lane count and allocated once per engine.
type batchScratch struct {
	k  int
	A  *sparse.BatchMatrix[float64]
	F  []float64 // SoA residuals, (size+1)*k
	dx []float64 // SoA steps, size*k
	xs [][]float64

	// AC lockstep scratch, allocated on the first ACBatch.
	gv, cv []float64
	rhs    []complex128
	Y      *sparse.BatchMatrix[complex128]
	xc     []complex128
	y0     []complex128 // pristine ω-independent assembly, complex(gv[i], 0)
	pat    []int32      // value-array indices whose C lane is not a +0 bit pattern
}

// batchScratchFor returns the engine's lockstep scratch for k lanes,
// (re)allocating when the lane count changes (callers normally pass
// e.Lanes(), so this happens once).
func (e *Engine) batchScratchFor(k int) *batchScratch {
	if e.batch != nil && e.batch.k == k {
		return e.batch
	}
	bs := &batchScratch{
		k:  k,
		A:  sparse.NewBatchMatrix[float64](e.sym, k),
		F:  make([]float64, (e.size+1)*k),
		dx: make([]float64, e.size*k),
		xs: make([][]float64, k),
	}
	for l := range bs.xs {
		bs.xs[l] = make([]float64, e.size)
	}
	e.batch = bs
	return bs
}

func (bs *batchScratch) acInit(e *Engine) {
	if bs.Y != nil {
		return
	}
	n, k := e.size, bs.k
	bs.gv = make([]float64, (e.sym.NNZ()+1)*k)
	bs.cv = make([]float64, (e.sym.NNZ()+1)*k)
	bs.rhs = make([]complex128, (n+1)*k)
	bs.Y = sparse.NewBatchMatrix[complex128](e.sym, k)
	bs.xc = make([]complex128, n*k)
	bs.y0 = make([]complex128, (e.sym.NNZ()+1)*k)
}

// laneState tracks one lane through the staged batch Newton driver.
type laneState struct {
	active bool // participating in the current stage
	done   bool // converged; x and iters are final
	fall   bool // evicted to the scalar fallback
	iters  int
	err    error
}

// newtonBatch mirrors Engine.newton across the active lanes in lockstep:
// per iteration every live lane is stamped into its SoA value lane (under
// its LaneSetter state), the batch Jacobian factors once, and damping,
// divergence and convergence are judged per lane with the scalar rules. A
// converged lane freezes — its x stops moving, exactly where the scalar
// iteration would have returned. The per-lane (iterations, error) outcome
// matches the scalar newton's return for every lane.
func (e *Engine) newtonBatch(bs *batchScratch, st []laneState, ctx stampCtx, set LaneSetter) {
	k := bs.k
	type run struct {
		iters int
		err   error
		live  bool
	}
	rs := make([]run, k)
	nLive := 0
	for l := range st {
		if st[l].active {
			rs[l].live = true
			nLive++
		}
	}
	if nLive > 0 {
		mLockstepLanes.Observe(float64(nLive))
	}
	defer func() {
		var iterSum int64
		for l := range st {
			if st[l].active {
				iterSum += int64(rs[l].iters)
			}
		}
		mNewtonIters.Add(iterSum)
		mFactorizations.Add(iterSum)
	}()
	vals := bs.A.Values()
	for iter := 1; iter <= e.opts.MaxIter; iter++ {
		if nLive == 0 {
			break
		}
		bs.A.Zero()
		for i := range bs.F {
			bs.F[i] = 0
		}
		for l := 0; l < k; l++ {
			if !rs[l].live {
				continue
			}
			set(l)
			e.plan.stampDC(vals, bs.F, k, l, bs.xs[l], e.scrV, ctx)
		}
		for i := 0; i < e.size; i++ {
			for l := 0; l < k; l++ {
				bs.dx[i*k+l] = -bs.F[i*k+l]
			}
		}
		ferrs := bs.A.FactorSolve(bs.dx)
		for l := 0; l < k; l++ {
			if !rs[l].live {
				continue
			}
			if ferrs[l] != nil {
				rs[l].iters = iter
				rs[l].err = fmt.Errorf("%w: singular Jacobian", ErrNoConvergence)
				rs[l].live = false
				nLive--
				continue
			}
			x := bs.xs[l]
			done := true
			clamped := false
			for i := range x {
				step := bs.dx[i*k+l]
				if i < e.nNodes && math.Abs(step) > e.opts.MaxStep {
					step = math.Copysign(e.opts.MaxStep, step)
					clamped = true
				}
				x[i] += step
				if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
					rs[l].iters = iter
					rs[l].err = ErrNoConvergence
					rs[l].live = false
					nLive--
					done = false
					break
				}
			}
			if rs[l].err != nil {
				continue
			}
			for i := 0; i < e.nNodes; i++ {
				if math.Abs(bs.dx[i*k+l]) > e.opts.AbsTol+e.opts.RelTol*math.Abs(x[i]) {
					done = false
					break
				}
			}
			if done && !clamped {
				rs[l].iters = iter
				rs[l].live = false
				nLive--
			}
		}
	}
	for l := range st {
		if !st[l].active {
			continue
		}
		if rs[l].live {
			// Ran out of iterations, like the scalar loop falling through.
			rs[l].iters = e.opts.MaxIter
			rs[l].err = ErrNoConvergence
		}
		st[l].iters += rs[l].iters
		st[l].err = rs[l].err
	}
}

// DCOperatingPointBatch solves the DC operating points of up to len(active)
// samples in lockstep from a cold start, mirroring DCOperatingPoint per
// lane. active[l]==false skips lane l (its result and error stay nil) — the
// tail of a partial sample group. set installs lane state and is required.
// The returned slices have one entry per lane; a lane either carries a
// result or an error.
func (e *Engine) DCOperatingPointBatch(active []bool, set LaneSetter) ([]*OPResult, []error) {
	k := len(active)
	res := make([]*OPResult, k)
	errs := make([]error, k)
	if e.sym == nil || k == 1 {
		// Dense backend or scalar lane count: the lockstep path degenerates
		// to per-lane scalar solves — the same bits by the lane contract.
		for l := 0; l < k; l++ {
			if !active[l] {
				continue
			}
			set(l)
			res[l], errs[l] = e.DCOperatingPoint()
		}
		return res, errs
	}
	bs := e.batchScratchFor(k)
	st := make([]laneState, k)
	for l := 0; l < k; l++ {
		if !active[l] {
			continue
		}
		st[l].active = true
		set(l)
		e.seedDC(bs.xs[l])
	}

	if len(e.opts.Nodeset) > 0 {
		// Mirror solveDCCold: with a nodeset, try a direct solve first.
		e.newtonBatch(bs, st, stampCtx{gmin: e.opts.GminFinal, srcScale: 1, time: -1}, set)
		for l := range st {
			if !st[l].active {
				continue
			}
			if st[l].err == nil {
				st[l].active = false
				st[l].done = true
			} else {
				// Failed direct attempt: reseed and join the gmin ladder,
				// keeping the iteration count, like the scalar driver.
				st[l].err = nil
				set(l)
				e.seedDC(bs.xs[l])
			}
		}
	}

	// Gmin ladder in lockstep: the schedule is fixed, so all remaining lanes
	// step down the same levels together. A lane failing any level leaves
	// the happy path and is evicted to the scalar fallback.
	anyActive := false
	for l := range st {
		anyActive = anyActive || st[l].active
	}
	if anyActive {
		gmin := e.opts.GminStart
		for {
			e.newtonBatch(bs, st, stampCtx{gmin: gmin, srcScale: 1, time: -1}, set)
			anyActive = false
			for l := range st {
				if !st[l].active {
					continue
				}
				if st[l].err != nil {
					st[l].active = false
					st[l].fall = true
					continue
				}
				anyActive = true
			}
			if gmin <= e.opts.GminFinal || !anyActive {
				break
			}
			gmin /= 100
			if gmin < e.opts.GminFinal {
				gmin = e.opts.GminFinal
			}
		}
		for l := range st {
			if st[l].active {
				st[l].active = false
				st[l].done = true
			}
		}
	}

	for l := 0; l < k; l++ {
		switch {
		case st[l].done:
			set(l)
			res[l] = e.opResult(bs.xs[l], st[l].iters)
		case st[l].fall:
			// Scalar rerun from scratch: determinism retraces the shared
			// prefix bit for bit, then continues into source stepping
			// exactly as the scalar cold solve would. The scalar result —
			// including its iteration accounting — replaces everything the
			// batch attempt did for this lane.
			set(l)
			res[l], errs[l] = e.DCOperatingPoint()
		}
	}
	return res, errs
}

// DCOperatingPointBatchFrom mirrors DCOperatingPointFrom across a lockstep
// batch: every lane warm-starts from prev (one shared, deterministic
// operating point — typically the design's nominal op) and attempts a
// single direct solve; lanes the direct attempt cannot land fall back to
// the full scalar cold procedure, preserving the scalar path's failure
// injection and iteration accounting bit for bit. A nil or mismatched prev
// degenerates to DCOperatingPointBatch.
func (e *Engine) DCOperatingPointBatchFrom(prev *OPResult, active []bool, set LaneSetter) ([]*OPResult, []error) {
	if prev == nil || len(prev.V) != e.ckt.NumNodes() || len(prev.BranchI) != len(e.branches) {
		return e.DCOperatingPointBatch(active, set)
	}
	k := len(active)
	res := make([]*OPResult, k)
	errs := make([]error, k)
	if e.sym == nil || k == 1 {
		for l := 0; l < k; l++ {
			if !active[l] {
				continue
			}
			set(l)
			res[l], errs[l] = e.DCOperatingPointFrom(prev)
		}
		return res, errs
	}
	bs := e.batchScratchFor(k)
	st := make([]laneState, k)
	for l := 0; l < k; l++ {
		if !active[l] {
			continue
		}
		st[l].active = true
		x := bs.xs[l]
		for i := 1; i < e.ckt.NumNodes(); i++ {
			x[row(i)] = prev.V[i]
		}
		for i := range e.branches {
			x[e.nNodes+i] = prev.BranchI[i]
		}
	}
	e.newtonBatch(bs, st, stampCtx{gmin: e.opts.GminFinal, srcScale: 1, time: -1}, set)
	for l := 0; l < k; l++ {
		if !st[l].active {
			continue
		}
		if st[l].err == nil {
			set(l)
			res[l] = e.opResult(bs.xs[l], st[l].iters)
			continue
		}
		// Mirror the scalar warm path's fallback: keep the direct attempt's
		// iteration count and continue with the cold procedure.
		set(l)
		x := make([]float64, e.size)
		cold, cerr := e.solveDCCold(x)
		iters := st[l].iters + cold
		if cerr != nil {
			errs[l] = cerr
			continue
		}
		res[l] = e.opResult(x, iters)
	}
	return res, errs
}

// ACBatch runs the small-signal sweep of up to len(ops) samples in lockstep,
// recording every node over the full range: per lane the G/C split and
// drive are stamped once (under the lane's LaneSetter state, linearized at
// its own operating point), and every frequency point assembles and factors
// all lanes through one traversal. ops[l] == nil skips lane l (a sample
// whose DC solve failed); a lane whose complex system is singular at some
// frequency reports the scalar AC error for that lane without disturbing
// the others.
func (e *Engine) ACBatch(ops []*OPResult, freqs []float64, set LaneSetter) ([]*ACResult, []error) {
	nodes := e.ckt.NumNodes()
	flats, errs := e.sweepBatch(ops, freqs, 0, nodes, false, set)
	res := make([]*ACResult, len(ops))
	for l, flat := range flats {
		if flat != nil {
			res[l] = newACResult(freqs, flat, nodes)
		}
	}
	return res, errs
}

// ACBatchProbe is the lockstep twin of ACProbe: h[l] holds lane l's probed
// phasors, bit-identical to ACProbe on that sample. With p.StopAtUnity a
// lane retires at its own unity crossing and the group stops once every
// lane has retired or failed.
func (e *Engine) ACBatchProbe(ops []*OPResult, freqs []float64, p Probe, set LaneSetter) ([][]complex128, []error) {
	e.checkProbe(p)
	return e.sweepBatch(ops, freqs, p.Node, p.Node+1, p.StopAtUnity, set)
}

// sweepBatch is the lockstep AC sweep loop: the K-lane form of sweep, with
// one flat record per lane. A lane stops sweeping when it fails (its record
// is nil and its error set) or, with stop, after its own unity crossing;
// the factorization counter counts only lanes still sweeping, the scalar
// equivalent of the work done.
func (e *Engine) sweepBatch(ops []*OPResult, freqs []float64, lo, hi int, stop bool, set LaneSetter) ([][]complex128, []error) {
	k := len(ops)
	out := make([][]complex128, k)
	errs := make([]error, k)
	if e.sym == nil || k == 1 {
		for l := 0; l < k; l++ {
			if ops[l] == nil {
				continue
			}
			set(l)
			out[l], errs[l] = e.sweep(ops[l], freqs, lo, hi, stop)
		}
		return out, errs
	}
	bs := e.batchScratchFor(k)
	bs.acInit(e)
	for i := range bs.gv {
		bs.gv[i] = 0
		bs.cv[i] = 0
	}
	for i := range bs.rhs {
		bs.rhs[i] = 0
	}
	live := make([]bool, k)
	nLive := 0
	for l := 0; l < k; l++ {
		live[l] = ops[l] != nil
		if !live[l] {
			continue
		}
		nLive++
		set(l)
		e.plan.stampAC(bs.gv, bs.cv, bs.rhs, k, l, ops[l], e.opts.GminFinal)
	}
	if nLive == 0 {
		return out, errs
	}

	n := e.size
	w := hi - lo
	for l := 0; l < k; l++ {
		if live[l] {
			out[l] = make([]complex128, len(freqs)*w)
		}
	}
	// Copy+patch assembly: Y(ω) = G + jωC differs from the ω-independent
	// pristine image complex(g, 0) only at entries whose C value is not a
	// positive zero — for every other entry ω·(+0) assembles the pristine
	// bits exactly (any finite ω ≥ 0). Capacitors touch a small fraction of
	// the pattern, so the per-frequency assembly collapses to one block copy
	// plus a short patch loop. Entries holding a negative zero or non-finite
	// C value go on the patch list, keeping the assembled bits identical to
	// the full loop.
	for i, g := range bs.gv {
		bs.y0[i] = complex(g, 0)
	}
	pat := bs.pat[:0]
	for i, c := range bs.cv {
		if math.Float64bits(c) != 0 {
			pat = append(pat, int32(i))
		}
	}
	bs.pat = pat
	yv := bs.Y.Values()
	for fi, f := range freqs {
		omega := 2 * math.Pi * f
		if omega >= 0 && omega <= math.MaxFloat64 {
			copy(yv, bs.y0)
			for _, i := range pat {
				yv[i] = complex(bs.gv[i], omega*bs.cv[i])
			}
		} else {
			// A negative or non-finite ω multiplies even +0 entries into
			// something else (-0, NaN); assemble the long way.
			for i := range yv {
				yv[i] = complex(bs.gv[i], omega*bs.cv[i])
			}
		}
		copy(bs.xc, bs.rhs[:n*k])
		serrs := bs.Y.FactorSolve(bs.xc)
		mFactorizations.Add(int64(nLive)) // scalar-equivalent: one per sweeping lane per point
		for l := 0; l < k; l++ {
			if !live[l] {
				continue
			}
			if serrs[l] != nil {
				errs[l] = fmt.Errorf("spice: AC solve at %g Hz: %w", f, serrs[l])
				out[l] = nil
				live[l] = false
				nLive--
				continue
			}
			h := out[l]
			record(h[fi*w:(fi+1)*w], bs.xc, lo, k, l)
			if stop && fi > 0 && measure.FallsThroughUnity(h[fi-1], h[fi]) {
				out[l] = h[:fi+1]
				live[l] = false
				nLive--
			}
		}
		if nLive == 0 {
			break
		}
	}
	return out, errs
}
