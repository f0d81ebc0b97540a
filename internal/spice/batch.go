package spice

import (
	"fmt"
	"math"
	"slices"

	"github.com/eda-go/moheco/internal/linalg/sparse"
)

// This file implements the engine's solve loops: the Newton loop and the
// staged DC procedure. Every DC solve — point-wise, warm-started, lockstep
// and each round of transient steps (tran.go) — runs through them as a
// group of K lanes: K Monte-Carlo samples of one topology that share the
// engine's symbolic factorization and stamp plan and refactorize/solve in
// lockstep through sparse.BatchMatrix, one index traversal driving K value
// lanes. A scalar solve is the one-lane group. The AC sweep (ac.go) follows
// the same scheme.
//
// # Lane determinism contract
//
// Every lane of a K-lane group is bit-identical to the one-lane group of the
// same sample: the stamp plan writes lane l through the same cached indices
// (scaled idx·K+l), the lockstep kernel performs the one-lane kernel's exact
// floating-point sequence per lane, and the solve loops judge damping,
// divergence and convergence per lane and run every stage — direct warm
// attempt, nodeset attempt, gmin ladder, source stepping — with per-lane
// participation, and the transient driver applies each lane's own step
// control, so a lane's sequence of Newton runs depends only on its own
// outcomes. Results are therefore a pure function of the sample, independent
// of the lane count and of which samples share a group.

// LaneSetter installs the per-sample model state of one lane — perturbed
// model cards, bias source values — before the engine stamps, seeds or
// post-processes that lane. The engine calls it every time it switches
// lanes; it must be cheap (copy precomputed cards, not recompute them).
type LaneSetter func(lane int)

// noLane is the LaneSetter of a one-lane solve, whose sample state the
// caller has installed already.
func noLane(int) {}

// oneLane is the active mask of a one-lane group.
var oneLane = []bool{true}

// errSingularJacobian reports a Newton iteration whose Jacobian did not
// factor.
var errSingularJacobian = fmt.Errorf("%w: singular Jacobian", ErrNoConvergence)

// scratch is the solve scratch of one group width, allocated once per width
// and engine: one engine runs K-lane groups and one-lane solves
// (point-wise samples and transients) side by side.
//
// It also holds the width's batch results, so a steady-state batch
// allocates nothing: the DC operating points here, the probed AC records
// in ac and the transient results in tran. A batch result is valid until
// the next batch call of the same analysis at the same width — the
// one-lane wrappers included, which is why they return copies.
type scratch struct {
	k    int
	A    *sparse.BatchMatrix[float64] // Jacobian lanes
	vals []float64                    // A's value array, the one stamps write into
	F    []float64                    // SoA residuals, (size+1)*k
	dx   []float64                    // SoA steps, size*k
	xs   [][]float64                  // per-lane iterates of the DC procedure
	st   []laneState

	ops   []OPResult  // per-lane DC results
	dcRes []*OPResult // the last DC batch's results: &ops[l] or nil
	dcErr []error     // the last DC batch's errors

	ac   *acScratch // allocated on the first sweep
	tran *tranGroup // allocated on the first transient
}

// laneState tracks one lane through the solve loops.
type laneState struct {
	active bool  // in the group and not yet converged
	done   bool  // converged; the lane's iterate and iters are final
	iters  int   // Newton iterations over every stage so far
	err    error // outcome of the lane's last Newton run
	live   bool  // iterating in the current Newton run (AC: still sweeping)
}

// scratchFor returns the engine's scratch for k lanes.
func (e *Engine) scratchFor(k int) *scratch {
	for _, bs := range e.scratch {
		if bs.k == k {
			return bs
		}
	}
	n := e.size
	bs := &scratch{
		k:     k,
		F:     make([]float64, (n+1)*k),
		dx:    make([]float64, n*k),
		xs:    make([][]float64, k),
		st:    make([]laneState, k),
		ops:   make([]OPResult, k),
		dcRes: make([]*OPResult, k),
		dcErr: make([]error, k),
	}
	for l := range bs.xs {
		bs.xs[l] = make([]float64, n)
		bs.ops[l] = e.newOPResult()
	}
	bs.A = sparse.NewBatchMatrix[float64](e.sym, k)
	bs.vals = bs.A.Values()
	e.scratch = append(e.scratch, bs)
	return bs
}

// TrimScratch frees the solve scratch of every group width other than the
// engine's lane count and one lane — the storage short batches left
// behind. Batch results of a freed width are gone; one-lane results are
// copies and stay valid. An engine that lives across many callers' batches
// calls it between batches, so that what it keeps is the storage of its
// steady state, not of every width it has ever run.
func (e *Engine) TrimScratch() {
	e.scratch = slices.DeleteFunc(e.scratch, func(bs *scratch) bool {
		return bs.k != e.lanes && bs.k != 1
	})
}

// newton is the Newton loop. It iterates every active lane whose last run
// succeeded (err == nil) toward F(x)=0 under ctx, in lockstep: per iteration
// each live lane is stamped into its SoA value lane under its LaneSetter
// state — and, in a transient group, under its own step context steps[l]
// (nil for DC) — the Jacobian lanes factor and solve once, and damping,
// divergence and convergence are judged per lane. A lane leaves the run
// when it converges (err nil) or fails (err set), its x frozen where it
// stopped, and adds the run's iterations to its iters. Devices stamp through their cached
// value-array indices and the step shares the residual scratch, so an
// iteration allocates nothing.
func (e *Engine) newton(bs *scratch, xs [][]float64, ctx stampCtx, steps []laneStep, set LaneSetter) {
	k, st := bs.k, bs.st
	nLive := 0
	for l := range st {
		st[l].live = st[l].active && st[l].err == nil
		if st[l].live {
			nLive++
		}
	}
	if k > 1 && nLive > 0 {
		mLockstepLanes.Observe(float64(nLive))
	}
	var total int64
	leave := func(s *laneState, iters int, err error) {
		s.live, s.err = false, err
		s.iters += iters
		total += int64(iters)
		nLive--
	}
	for iter := 1; iter <= e.opts.MaxIter && nLive > 0; iter++ {
		clear(bs.vals)
		clear(bs.F)
		for l := range st {
			if st[l].live {
				set(l)
				if steps != nil {
					ctx.laneStep = steps[l]
				}
				e.plan.stampDC(bs.vals, bs.F, k, l, xs[l], e.scrV, ctx)
			}
		}
		// Solve J·dx = -F in place: the stamped values become the LU
		// factors, dx starts as the negated residual and ends as the step.
		for i := range bs.dx {
			bs.dx[i] = -bs.F[i]
		}
		ferrs := bs.A.FactorSolve(bs.dx)
		for l := range st {
			s := &st[l]
			if !s.live {
				continue
			}
			if ferrs[l] != nil {
				leave(s, iter, errSingularJacobian)
				continue
			}
			// Damping: clamp each node-voltage update independently so one
			// runaway node (e.g. a current source into an off transistor)
			// cannot stall progress everywhere else.
			x := xs[l]
			clamped, diverged := false, false
			for i := range x {
				step := bs.dx[i*k+l]
				if i < e.nNodes && math.Abs(step) > maxStep {
					step = math.Copysign(maxStep, step)
					clamped = true
				}
				x[i] += step
				if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
					diverged = true
					break
				}
			}
			if diverged {
				leave(s, iter, ErrNoConvergence)
				continue
			}
			if clamped {
				continue
			}
			done := true
			for i := 0; i < e.nNodes; i++ {
				if math.Abs(bs.dx[i*k+l]) > absTol+relTol*math.Abs(x[i]) {
					done = false
					break
				}
			}
			if done {
				leave(s, iter, nil)
			}
		}
	}
	for l := range st {
		if st[l].live {
			leave(&st[l], e.opts.MaxIter, ErrNoConvergence) // out of iterations
		}
	}
	// One factorization per iteration, converged or not, and one DC
	// evaluation per transistor per iteration stamped.
	mNewtonIters.Add(total)
	mFactorizations.Add(total)
	mMOSDCEvals.Add(total * int64(len(e.plan.mos)))
}

// DCOperatingPointBatchFrom is the lockstep DCOperatingPointFrom: every lane
// warm-starts from prev (one shared, deterministic operating point —
// typically the design's nominal op) with a single direct solve, and lanes
// it cannot land continue with the cold procedure, keeping the attempt's
// iterations. A nil or mismatched prev degenerates to
// DCOperatingPointBatch. Each lane is bit-identical to DCOperatingPointFrom
// on its sample.
func (e *Engine) DCOperatingPointBatchFrom(prev *OPResult, active []bool, set LaneSetter) ([]*OPResult, []error) {
	k := len(active)
	warm := prev != nil && len(prev.V) == e.ckt.NumNodes() && len(prev.BranchI) == len(e.branches)
	bs := e.scratchFor(k)
	for l := range bs.st {
		bs.st[l] = laneState{active: active[l]}
		if warm && active[l] {
			e.loadOP(bs.xs[l], prev)
		}
	}
	e.solveDC(bs, warm, set)
	res, errs := bs.dcRes, bs.dcErr
	done := 0
	for l, s := range bs.st {
		res[l], errs[l] = nil, nil
		switch {
		case s.done:
			set(l)
			e.opResult(&bs.ops[l], bs.xs[l], s.iters)
			res[l] = &bs.ops[l]
			done++
		case active[l]:
			errs[l] = s.err
		}
	}
	mMOSFullEvals.Add(int64(done * len(e.mosfets)))
	return res, errs
}

// solveDC is the staged DC procedure, run in lockstep over the group's
// active lanes: a direct attempt from the caller's iterates (warm), then the
// cold start — seed, a direct attempt from a nodeset, the gmin ladder, and
// source stepping. A lane leaves at the first stage it converges in; a lane
// that fails a stage rejoins at the next one, except that failing source
// stepping is final.
func (e *Engine) solveDC(bs *scratch, warm bool, set LaneSetter) {
	direct := stampCtx{gmin: gminFinal, srcScale: 1, laneStep: dcStep}
	if warm {
		e.newton(bs, bs.xs, direct, nil, set)
		if !bs.retire() {
			return
		}
	}
	e.seedLanes(bs, set)
	if len(e.opts.Nodeset) > 0 {
		// With a nodeset the seed should already be near the solution;
		// gmin stepping would first drag the iterate toward the heavily
		// damped system's solution and out of the basin. Try a direct
		// solve first.
		e.newton(bs, bs.xs, direct, nil, set)
		if !bs.retire() {
			return
		}
		e.seedLanes(bs, set)
	}
	e.ladder(bs, 1, set)
	if !bs.retire() {
		return
	}
	// Source stepping: ramp sources from 10% to 100%, a full gmin ladder at
	// each step, from a fresh seed.
	e.seedLanes(bs, set)
	for _, s := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		e.ladder(bs, s, set)
	}
	bs.retire()
}

// ladder steps gmin down its fixed schedule at source scale srcScale, one
// Newton run per level. The schedule is shared, so all lanes step down the
// same levels together; a lane that fails a level sits out the rest with
// its error set.
func (e *Engine) ladder(bs *scratch, srcScale float64, set LaneSetter) {
	gmin := gminStart
	for {
		e.newton(bs, bs.xs, stampCtx{gmin: gmin, srcScale: srcScale, laneStep: dcStep}, nil, set)
		if gmin <= gminFinal || !bs.running() {
			return
		}
		gmin /= 100
		if gmin < gminFinal {
			gmin = gminFinal
		}
	}
}

// running reports whether an active lane's last Newton run succeeded.
func (bs *scratch) running() bool {
	for _, s := range bs.st {
		if s.active && s.err == nil {
			return true
		}
	}
	return false
}

// retire marks the active lanes whose last Newton run converged as done and
// reports whether any active lane is left.
func (bs *scratch) retire() bool {
	left := false
	for l := range bs.st {
		s := &bs.st[l]
		if s.active && s.err == nil {
			s.active, s.done = false, true
		}
		left = left || s.active
	}
	return left
}

// seedLanes writes the cold-start iterate of every active lane under its
// state and clears its last error, so it takes part in the next stage.
func (e *Engine) seedLanes(bs *scratch, set LaneSetter) {
	for l := range bs.st {
		if bs.st[l].active {
			bs.st[l].err = nil
			set(l)
			e.seedDC(bs.xs[l])
		}
	}
}
