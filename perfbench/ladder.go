package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/linalg/sparse"
	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/spice"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// ladderBudget bounds each direct kernel and solve measurement; it is the
// median of ten equal batches inside that budget. Whole-chunk measurements
// are the median of ladderReps calls.
const (
	ladderBudget = 150 * time.Millisecond
	ladderReps   = 5
)

// ladder holds the direct calls into the lower layers, on the
// foldedcascode-spice reference design unless a field says otherwise.
type ladder struct {
	size                       int // MNA unknowns of the foldedcascode-spice engine
	k1Real, k8Real             float64
	k1Complex, k8Complex       float64 // ns per lane of one FactorSolve
	scalarReal, scalarCplx     float64 // ns of one scalar Matrix FactorSolve
	dcUS, acUS, tranUS         float64 // scalar solves (tran: foldedcascode-tran)
	dc8US, ac8US               float64 // lockstep, per lane
	acPoints                   int
	dcIters                    float64 // Newton iterations of the timed DC solve
	itersPerSample             float64 // Newton iterations per sample in circuits
	circ8US, circ1US           float64 // circuits per sample, auto (8) lanes and 1 lane
	chunkUS                    float64 // yieldsim.ChunkPass per sample, one worker
	csChunkUS                  float64 // the same on commonsource-spice
	lhsUS, pmcUS               float64 // one Draw call
	lhsN, lhsDim, pmcN, pmcDim int
}

// timeOp returns the median ns of one fn call over ten batches.
func timeOp(fn func()) float64 {
	t0 := time.Now()
	fn()
	one := max(time.Since(t0), time.Microsecond)
	per := max(1, int(ladderBudget/10/one))
	var ns []float64
	for b := 0; b < 10; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		ns = append(ns, float64(time.Since(t0))/float64(per))
	}
	return median(ns)
}

func runLadder(seed uint64) (*ladder, error) {
	lad := &ladder{}
	rng := randx.New(randx.DeriveSeed(seed, 0x1adde7))
	fc := scenario.MustGet("foldedcascode-spice")
	fcp := fc.New()
	x, _ := scenario.ReferenceDesign(fcp)
	ckt, nodeset, err := fc.Netlist(x)
	if err != nil {
		return nil, err
	}
	eng, err := spice.New(ckt, spice.Options{Nodeset: nodeset})
	if err != nil {
		return nil, err
	}
	lad.size = eng.Size()
	fmt.Printf("ladder foldedcascode-spice engine: %d unknowns\n", lad.size)

	// L0: the sparse kernel on a random MNA-like pattern of the same size.
	sym, stamped, err := randomPattern(lad.size, rng)
	if err != nil {
		return nil, err
	}
	lad.k1Real = kernelNS[float64](sym, stamped, 1, rng)
	lad.k8Real = kernelNS[float64](sym, stamped, 8, rng)
	lad.k1Complex = kernelNS[complex128](sym, stamped, 1, rng)
	lad.k8Complex = kernelNS[complex128](sym, stamped, 8, rng)
	lad.scalarReal = scalarNS[float64](sym, stamped, rng)
	lad.scalarCplx = scalarNS[complex128](sym, stamped, rng)

	// L1: one DC Newton solve (warm from the nominal point, as the circuits
	// layer solves) and one AC sweep, scalar and 8-lane lockstep. The
	// ladder scales the DC cost by the iterations a real sample takes.
	op0, err := eng.DCOperatingPoint()
	if err != nil {
		return nil, err
	}
	freqs := spice.LogSpace(1e3, 1e9, 8)
	lad.acPoints = len(freqs)
	var solveErr error
	iters := obs.Default().Counter("spice_newton_iterations_total")
	i0 := iters.Value()
	if _, err := eng.DCOperatingPointFrom(op0); err != nil {
		return nil, err
	}
	lad.dcIters = float64(max(iters.Value()-i0, 1))
	lad.dcUS = timeOp(func() {
		if _, err := eng.DCOperatingPointFrom(op0); err != nil {
			solveErr = err
		}
	}) / 1e3
	lad.acUS = timeOp(func() {
		if _, err := eng.AC(op0, freqs); err != nil {
			solveErr = err
		}
	}) / 1e3
	eng8, err := spice.New(ckt, spice.Options{Nodeset: nodeset, Lanes: 8})
	if err != nil {
		return nil, err
	}
	if _, err := eng8.DCOperatingPoint(); err != nil {
		return nil, err
	}
	active := []bool{true, true, true, true, true, true, true, true}
	noop := func(int) {}
	var ops []*spice.OPResult
	lad.dc8US = timeOp(func() {
		var errs []error
		ops, errs = eng8.DCOperatingPointBatchFrom(op0, active, noop)
		solveErr = firstErr(solveErr, errs)
	}) / 1e3 / 8
	lad.ac8US = timeOp(func() {
		_, errs := eng8.ACBatch(ops, freqs, noop)
		solveErr = firstErr(solveErr, errs)
	}) / 1e3 / 8
	if solveErr != nil {
		return nil, fmt.Errorf("spice rung: %w", solveErr)
	}
	if lad.tranUS, err = tranUS(); err != nil {
		return nil, err
	}

	// L2: one sample through the circuits layer, lane width auto (8 at
	// this size) and pinned to 1 — the end-to-end side of the K=8 gap.
	// The two alternate over ladderReps rounds and each keeps its median,
	// so a slow spell of the host lands on both sides.
	xis := sample.PMC{}.Draw(randx.New(randx.DeriveSeed(seed, 0xc1)), yieldsim.ChunkSize, fcp.VarDim())
	oneLane := circuits.NewFoldedCascodeSpice().SetLanes(1)
	var c8, c1 []float64
	for r := 0; r < ladderReps; r++ {
		i0 = iters.Value()
		us, err := batchUS(fcp, x, xis)
		if err != nil {
			return nil, err
		}
		c8 = append(c8, us)
		lad.itersPerSample = float64(iters.Value()-i0) / float64(len(xis))
		if us, err = batchUS(oneLane, x, xis); err != nil {
			return nil, err
		}
		c1 = append(c1, us)
	}
	lad.circ8US, lad.circ1US = median(c8), median(c1)

	// L3: one chunk through yieldsim on one worker.
	cs := scenario.MustGet("commonsource-spice").New()
	csx, _ := scenario.ReferenceDesign(cs)
	var fcChunk, csChunk []float64
	for r := 0; r < ladderReps; r++ {
		us, err := chunkUS(fcp, x, seed)
		if err != nil {
			return nil, err
		}
		fcChunk = append(fcChunk, us)
		if us, err = chunkUS(cs, csx, seed); err != nil {
			return nil, err
		}
		csChunk = append(csChunk, us)
	}
	lad.chunkUS, lad.csChunkUS = median(fcChunk), median(csChunk)

	// Sampling at the workloads' shapes: LHS at the optimizer's stage-1
	// warm-up on foldedcascode, PMC at a reference chunk of
	// foldedcascode-spice.
	lad.lhsN, lad.lhsDim = 15, scenario.MustGet("foldedcascode").New().VarDim()
	lad.pmcN, lad.pmcDim = yieldsim.ChunkSize, fcp.VarDim()
	srng := randx.New(seed)
	lad.lhsUS = timeOp(func() { sample.LHS{}.Draw(srng, lad.lhsN, lad.lhsDim) }) / 1e3
	lad.pmcUS = timeOp(func() { sample.PMC{}.Draw(srng, lad.pmcN, lad.pmcDim) }) / 1e3
	return lad, nil
}

func firstErr(prev error, errs []error) error {
	if prev != nil {
		return prev
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batchUS times one EvaluateBatch call, per sample.
func batchUS(p problem.Problem, x []float64, xis [][]float64) (float64, error) {
	t0 := time.Now()
	if _, _, err := problem.EvaluateBatch(p, x, xis); err != nil {
		return 0, err
	}
	return float64(time.Since(t0)) / 1e3 / float64(len(xis)), nil
}

func chunkUS(p problem.Problem, x []float64, seed uint64) (float64, error) {
	t0 := time.Now()
	if _, err := yieldsim.ChunkPass(context.Background(), p, x, yieldsim.ChunkSize, seed, 0, 1, yieldsim.RefOptions{Workers: 1}); err != nil {
		return 0, err
	}
	return float64(time.Since(t0)) / 1e3 / yieldsim.ChunkSize, nil
}

// tranUS times one adaptive transient of the foldedcascode-tran testbench.
func tranUS() (float64, error) {
	sc := scenario.MustGet("foldedcascode-tran")
	p := sc.New()
	x, _ := scenario.ReferenceDesign(p)
	win, ok := p.(interface {
		TranWindow() (tstop, step float64, fixed bool)
	})
	if !ok {
		return 0, fmt.Errorf("foldedcascode-tran has no transient window")
	}
	tstop, step, fixed := win.TranWindow()
	ckt, nodeset, err := sc.Netlist(x)
	if err != nil {
		return 0, err
	}
	eng, err := spice.New(ckt, spice.Options{Nodeset: nodeset})
	if err != nil {
		return 0, err
	}
	op, err := eng.DCOperatingPoint()
	if err != nil {
		return 0, err
	}
	var terr error
	us := timeOp(func() {
		if _, err := eng.TransientOpts(op, spice.TranOptions{TStop: tstop, Step: step, Adaptive: !fixed}); err != nil {
			terr = err
		}
	}) / 1e3
	return us, terr
}

// randomPattern builds an MNA-like structurally symmetric pattern: the
// diagonal, the neighbouring nodes, and one random coupling within three
// nodes per row — the local connectivity that keeps circuit fill-in low.
// It also returns the stamped entries; fill-in starts at zero, as it does
// after the engine zeroes the matrix to restamp it.
func randomPattern(n int, rng *randx.Stream) (*sparse.Symbolic, [][2]int, error) {
	b := sparse.NewBuilder(n)
	var stamped [][2]int
	couple := func(r, c int) {
		if c < n {
			b.Add(r, c)
			b.Add(c, r)
			stamped = append(stamped, [2]int{r, c}, [2]int{c, r})
		}
	}
	for i := 0; i < n; i++ {
		b.Add(i, i)
		stamped = append(stamped, [2]int{i, i})
		couple(i, i+1)
		couple(i, i+1+rng.Intn(3))
	}
	sym, err := b.Analyze()
	return sym, stamped, err
}

// kernelNS times one K-lane FactorSolve, per lane, on diagonally dominant
// random values; each call restores the pristine values first, as a
// Newton iteration restamps them.
func kernelNS[T sparse.Scalar](sym *sparse.Symbolic, stamped [][2]int, k int, rng *randx.Stream) float64 {
	m := sparse.NewBatchMatrix[T](sym, k)
	n := sym.N()
	fill(sym, stamped, k, m.Values(), rng)
	pristine := append([]T(nil), m.Values()...)
	rhs := make([]T, n*k)
	for i := range rhs {
		rhs[i] = scalar[T](rng.Float64())
	}
	b := make([]T, len(rhs))
	return timeOp(func() {
		copy(m.Values(), pristine)
		copy(b, rhs)
		m.FactorSolve(b)
	}) / float64(k)
}

// scalar converts a real value to the kernel's element type.
func scalar[T sparse.Scalar](v float64) T {
	var z T
	switch p := any(&z).(type) {
	case *float64:
		*p = v
	case *complex128:
		*p = complex(v, 0)
	}
	return z
}

// scalarNS times one FactorSolve of the scalar kernel, the one a one-lane
// engine runs.
func scalarNS[T sparse.Scalar](sym *sparse.Symbolic, stamped [][2]int, rng *randx.Stream) float64 {
	m := sparse.NewMatrix[T](sym)
	fill(sym, stamped, 1, m.Values(), rng)
	pristine := append([]T(nil), m.Values()...)
	rhs := make([]T, sym.N())
	for i := range rhs {
		rhs[i] = scalar[T](rng.Float64())
	}
	b := make([]T, len(rhs))
	return timeOp(func() {
		copy(m.Values(), pristine)
		copy(b, rhs)
		_ = m.FactorSolve(b) // the values are diagonally dominant
	})
}

// fill stamps diagonally dominant random values into k lanes of every
// stamped entry of the pattern.
func fill[T sparse.Scalar](sym *sparse.Symbolic, stamped [][2]int, k int, vals []T, rng *randx.Stream) {
	n := float64(sym.N())
	for _, e := range stamped {
		t := sym.Index(e[0], e[1])
		for l := 0; l < k; l++ {
			v := rng.Float64() - 0.5
			if e[0] == e[1] {
				v += n
			}
			vals[t*k+l] += scalar[T](v)
		}
	}
}

// ladderReport prints each rung's per-sample cost, the ratio between
// adjacent rungs with its base, and the split of the K=8 kernel gap.
func ladderReport(w io.Writer, tr map[string]*layers, lad *ladder) {
	est, opt, svc, flt := tr["estimate"], tr["optimize"], tr["serve"], tr["fleet"]
	kern8 := (lad.itersPerSample*lad.k8Real + float64(lad.acPoints)*lad.k8Complex) / 1e3
	kern1 := (lad.itersPerSample*lad.scalarReal + float64(lad.acPoints)*lad.scalarCplx) / 1e3
	spice8 := lad.itersPerSample*lad.dc8US/lad.dcIters + lad.ac8US
	spice1 := lad.itersPerSample*lad.dcUS/lad.dcIters + lad.acUS
	type rung struct {
		name, base string
		us         float64
	}
	// ReferenceCtx on all workers, as processor time per sample.
	var fcRef float64
	if rs := est.refScen["foldedcascode-spice"]; rs != nil && rs.samples > 0 {
		fcRef = 1e6 * rs.wallS * float64(workers) / float64(rs.samples)
	}
	rungs := []rung{
		{"L0 sparse kernel (K=8, per sample)", "", kern8},
		{"L1 spice DC+AC (8-lane lockstep, per lane)", "sparse kernel", spice8},
		{"L2 circuits EvaluateBatch (foldedcascode-spice)", "spice DC+AC per lane", lad.circ8US},
		{"L3 yieldsim ChunkPass (1 worker)", "circuits", lad.chunkUS},
		{fmt.Sprintf("L4 estimate ReferenceCtx (%d workers, wall×workers)", workers), "yieldsim ChunkPass", fcRef},
	}
	fmt.Fprintln(w, "ladder per-sample cost on foldedcascode-spice (µs):")
	for i, r := range rungs {
		fmt.Fprintf(w, "ladder  %-50s %10.3f", r.name, r.us)
		if i > 0 && rungs[i-1].us > 0 {
			fmt.Fprintf(w, "   %+.1f%% over %s", 100*(r.us/rungs[i-1].us-1), r.base)
		}
		fmt.Fprintln(w)
	}
	if g := opt.gen["memetic"]; g != nil && g.sims > 0 {
		perSim := 1e3 * g.wallMS / float64(g.sims)
		circ := opt.usPerSample("foldedcascode")
		fmt.Fprintf(w, "ladder  L5 core generation (memetic, per simulation)          %10.3f   %+.1f%% over circuits (behavioural foldedcascode %.3f µs/sample)\n",
			perSim, 100*(perSim/max(circ, 1e-9)-1), circ)
	}
	if n := len(svc.svcRunMS); n > 0 {
		perSample := 1e3 * median(svc.svcRunMS) / serveYieldN
		fmt.Fprintf(w, "ladder  L6 served job run (commonsource-spice n=%d, per sample) %8.3f   %+.1f%% over yieldsim ChunkPass on commonsource-spice (%.3f µs/sample)\n",
			serveYieldN, perSample, 100*(perSample/lad.csChunkUS-1), lad.csChunkUS)
	}
	if flt.fleetExec > 0 {
		perSample := 1e3 * (flt.fleetShardRunMS - flt.fleetLeaseWaitSumMS) / float64(flt.fleetExec) / fleetShard
		fmt.Fprintf(w, "ladder  L7 fleet shard less lease wait (commonsource-spice, per sample) %8.3f   %+.1f%% over yieldsim ChunkPass on commonsource-spice (%.3f µs/sample)\n",
			perSample, 100*(perSample/lad.csChunkUS-1), lad.csChunkUS)
	}
	// K=1 is the one-lane engine, which runs the scalar sparse kernel.
	fmt.Fprintf(w, "ladder K=8 gap on foldedcascode-spice (µs per sample, one lane → 8 lanes): kernel %.3f → %.3f (%.2fx), spice DC+AC %.3f → %.3f (%.2fx), circuits %.3f → %.3f (%.2fx)\n",
		kern1, kern8, kern1/kern8, spice1, spice8, spice1/spice8, lad.circ1US, lad.circ8US, lad.circ1US/lad.circ8US)
	saved := lad.circ1US - lad.circ8US
	fmt.Fprintf(w, "ladder K=8 saving %.3f µs/sample splits into kernel %.3f, stamping and other spice work %.3f, circuits wrapper %.3f\n",
		saved, kern1-kern8, (spice1-spice8)-(kern1-kern8), saved-(spice1-spice8))
	fmt.Fprintf(w, "ladder K=8 per-sample time shares: kernel %.1f%%, other spice %.1f%%, circuits wrapper %.1f%% of %.3f µs\n",
		100*kern8/lad.circ8US, 100*(spice8-kern8)/lad.circ8US, 100*(lad.circ8US-spice8)/lad.circ8US, lad.circ8US)
}
