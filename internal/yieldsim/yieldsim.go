// Package yieldsim estimates circuit yield by Monte-Carlo sampling. It
// provides the incremental per-candidate sampling state the OCBA allocator
// drives (give this candidate Δ more samples, read back mean and variance),
// the acceptance-sampling (AS) shortcut, simulation counting, and the
// high-accuracy reference estimator the paper uses to score every method
// (50,000-sample MC).
//
// Acceptance sampling here is a stratified border-focused estimator: the
// variation space is split by sample radius into an interior stratum (deep
// inside the typical-case region) and a border stratum. Border samples are
// always simulated; interior samples are simulated at a reduced rate and the
// interior pass rate is estimated from its simulated subsample. The yield is
// the stratum-weighted combination, which keeps the estimator unbiased —
// unlike a skip-and-assume-pass rule, which in an 80-dimensional variation
// space would silently inflate the yield (the failure rate of the innermost
// radius decile of a typical candidate is still ~10%).
package yieldsim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eda-go/moheco/internal/engine"
	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/stats"
)

// mChunkSeconds observes the wall time of one reference-estimator chunk
// (ChunkSize samples): the latency unit the fleet shards on. Side-channel
// accounting only — never part of the estimate.
var mChunkSeconds = obs.Default().Histogram("yieldsim_chunk_seconds", nil)

// simsCounter returns the per-(scenario, sampler) simulated-samples
// counter. Resolved once per candidate / ChunkPass call, then lock-free.
func simsCounter(scenario, sampler string) *obs.Counter {
	return obs.Default().Counter("yieldsim_samples_simulated_total",
		"scenario", scenario, "sampler", sampler)
}

// Counter counts simulator invocations across an experiment. It is safe for
// concurrent use.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Total returns the count.
func (c *Counter) Total() int64 { return c.n.Load() }

// Config describes how yield estimates are produced.
type Config struct {
	// Sampler generates the variation-space sample plans (PMC or LHS).
	Sampler sample.Sampler
	// AcceptanceSampling enables the stratified border-focused shortcut.
	AcceptanceSampling bool
	// ASThinning simulates one of every ASThinning interior samples
	// (default 3; 1 disables thinning).
	ASThinning int
	// ASRadiusFactor scales the interior/border split radius relative to
	// the median sample norm √dim (default 1.0).
	ASRadiusFactor float64
	// ASMinStratum is the minimum number of simulated samples per stratum
	// before thinning starts (default 8).
	ASMinStratum int
	// Workers bounds the goroutines used to run one batch's simulator
	// calls in parallel (0 = GOMAXPROCS, 1 = sequential). Which samples
	// are simulated, and into which stratum they fall, is decided
	// sequentially before the simulator runs, so the estimate is
	// identical for every worker count.
	Workers int
	// Ctx, when non-nil, cancels sampling: AddSamples stops handing
	// chunks to the simulator once the context is done (chunks already
	// in flight finish) and returns the context's error, poisoning the
	// candidate like any other batch error. Cancellation never changes a
	// completed estimate — a run either finishes bit-identically or
	// reports the cancellation.
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.Sampler == nil {
		c.Sampler = sample.LHS{}
	}
	if c.ASThinning == 0 {
		c.ASThinning = 3
	}
	if c.ASRadiusFactor == 0 {
		c.ASRadiusFactor = 1.0
	}
	if c.ASMinStratum == 0 {
		c.ASMinStratum = 8
	}
	return c
}

// stratum tracks one radius stratum of the stratified estimator.
type stratum struct {
	assigned int // samples assigned to this stratum (simulated or not)
	simmed   int // actually simulated
	pass     int // passing among the simulated
	skip     int // thinning phase counter
}

// rate returns the stratum pass-rate estimate (1 with no data: an empty
// interior stratum has simply not been entered yet).
func (s *stratum) rate() float64 {
	if s.simmed == 0 {
		return 1
	}
	return float64(s.pass) / float64(s.simmed)
}

// Candidate is the incremental sampling state of one design point.
type Candidate struct {
	X []float64

	prob    problem.Problem
	cfg     Config
	counter *Counter
	rng     *randx.Stream
	mSims   *obs.Counter // per-(scenario, sampler) simulated-samples metric

	r0       float64 // interior/border split radius
	interior stratum
	border   stratum
}

// NewCandidate creates sampling state for design x. The seed fixes the
// candidate's private sample stream, making estimates reproducible
// regardless of evaluation order.
func NewCandidate(p problem.Problem, x []float64, cfg Config, counter *Counter, seed uint64) *Candidate {
	c := &Candidate{
		X:       append([]float64(nil), x...),
		prob:    p,
		cfg:     cfg.withDefaults(),
		counter: counter,
		rng:     randx.New(seed),
	}
	c.r0 = c.cfg.ASRadiusFactor * math.Sqrt(float64(p.VarDim()))
	c.mSims = simsCounter(p.Name(), c.cfg.Sampler.Name())
	return c
}

// simChunk is the fixed batch-partition size: the simulated samples of one
// AddSamples call are split into chunks of this many consecutive samples,
// each handed to the problem as a single batch evaluation. The partition
// depends only on the batch's draw order — never on the worker count — so
// Workers=1 and Workers=N produce bit-identical estimates, and a batch
// problem's per-chunk solver state (netlist, engine, Newton warm starts)
// always covers the same samples.
const simChunk = 32

// simJob is one deferred simulator call of a batch: the sample point and
// the stratum its pass indicator belongs to.
type simJob struct {
	st *stratum
	xi []float64
}

// AddSamples draws n further Monte-Carlo samples and updates the estimate.
// The batch proceeds in three phases so that cfg.Workers never changes the
// result: a sequential plan phase draws the points and decides — per
// stratum, in draw order, on shadow copies of the stratum state — which
// samples are simulated; the simulator calls then run as whole fixed-size
// chunks on the worker pool, each chunk one batch evaluation (problems
// implementing problem.BatchEvaluator amortize their setup across it;
// everything else takes the point-wise fallback); a final sequential commit
// phase folds the results into the candidate. Per-sample evaluation errors
// are failure injection — a broken simulation is a failed chip — while
// structural batch errors (a misbehaving batch implementation) abort and
// surface.
//
// Accounting on a non-nil error (a structural batch failure or a cancelled
// cfg.Ctx) covers exactly the chunks that completed: a sample is committed —
// to Samples(), Sims(), and the pass counts behind Yield()/Std() — only when
// the chunk responsible for it finished, and the injected Counter advances
// chunk by chunk as evaluations complete, so Sims(), the Counter, and Std()
// agree on how many real simulations happened no matter where the batch
// stopped. (A structurally failed chunk's results are untrustworthy, so its
// samples count nowhere.) The candidate's private sample stream has still
// advanced past the aborted batch, so a retried AddSamples continues with
// fresh draws rather than reproducing the lost ones; callers that need
// seed-reproducible estimates must discard the candidate (every current
// caller aborts the optimization) rather than retry.
func (c *Candidate) AddSamples(n int) error {
	if n <= 0 {
		return nil
	}
	pts := c.cfg.Sampler.Draw(c.rng, n, c.prob.VarDim())
	// Plan phase: thinning decisions read the running stratum state, so they
	// are made on shadow copies that advance exactly as the commit of a
	// fully successful batch will; the per-sample plan records the stratum,
	// the simulate/skip decision, and the chunk whose completion commits the
	// sample (for a thinned sample, the chunk of the latest planned job —
	// its accounting rides with the simulations it was thinned against).
	type planEntry struct {
		st    *stratum
		sim   bool // simulated, vs. thinned away
		thin  bool // drawn in the thinning phase (advances the skip counter)
		chunk int
	}
	shInt, shBor := c.interior, c.border
	plan := make([]planEntry, 0, len(pts))
	jobs := make([]simJob, 0, len(pts))
	for _, xi := range pts {
		st, sh := &c.border, &shBor
		if c.cfg.AcceptanceSampling && norm2(xi) < c.r0 {
			st, sh = &c.interior, &shInt
		}
		sh.assigned++
		// The border stratum is always simulated; the interior stratum is
		// thinned once it has a minimal simulated base.
		sim := true
		thin := c.cfg.AcceptanceSampling && st == &c.interior && sh.simmed >= c.cfg.ASMinStratum
		if thin {
			sh.skip++
			if sh.skip%c.cfg.ASThinning != 0 {
				sim = false
			}
		}
		if sim {
			sh.simmed++
			jobs = append(jobs, simJob{st, xi})
		}
		chunk := 0
		if len(jobs) > 0 {
			chunk = (len(jobs) - 1) / simChunk
		}
		plan = append(plan, planEntry{st, sim, thin, chunk})
	}
	pass := make([]bool, len(jobs))
	chunks := (len(jobs) + simChunk - 1) / simChunk
	chunkDone := make([]bool, chunks)
	runErr := engine.ForEachNCtx(c.cfg.Ctx, c.cfg.Workers, chunks, func(ci int) error {
		lo := ci * simChunk
		hi := lo + simChunk
		if hi > len(jobs) {
			hi = len(jobs)
		}
		xis := make([][]float64, hi-lo)
		for i := range xis {
			xis[i] = jobs[lo+i].xi
		}
		ok, _, err := problem.PassFailBatch(c.prob, c.X, xis)
		if err != nil {
			return err
		}
		if c.counter != nil {
			c.counter.Add(int64(hi - lo))
		}
		c.mSims.Add(int64(hi - lo))
		copy(pass[lo:hi], ok)
		chunkDone[ci] = true
		return nil
	})
	// Commit phase (ForEachNCtx joins its workers, so chunkDone and pass are
	// settled). On success every chunk committed and the fold reproduces the
	// shadow state bit for bit; on error only completed chunks count.
	ji := 0
	for _, pe := range plan {
		committed := chunks == 0 || chunkDone[pe.chunk]
		if committed {
			pe.st.assigned++
			if pe.thin {
				pe.st.skip++
			}
		}
		if pe.sim {
			if committed {
				pe.st.simmed++
				if pass[ji] {
					pe.st.pass++
				}
			}
			ji++
		}
	}
	return runErr
}

// SetWorkers adjusts the worker bound for subsequent batches. Worker
// counts never change estimates, so callers retune it freely — e.g. a
// population evaluator that already fans out across candidates keeps
// per-candidate batches sequential, then restores the full pool for
// single-candidate top-ups.
func (c *Candidate) SetWorkers(w int) { c.cfg.Workers = w }

// EnsureSamples tops the candidate up to at least n accounted samples.
func (c *Candidate) EnsureSamples(n int) error {
	return c.AddSamples(n - c.Samples())
}

// Samples returns the number of accounted Monte-Carlo samples.
func (c *Candidate) Samples() int { return c.interior.assigned + c.border.assigned }

// Sims returns the number of actual simulator invocations.
func (c *Candidate) Sims() int { return c.interior.simmed + c.border.simmed }

// Yield returns the stratified estimate (0 with no samples).
func (c *Candidate) Yield() float64 {
	total := c.Samples()
	if total == 0 {
		return 0
	}
	wInt := float64(c.interior.assigned) / float64(total)
	wBor := float64(c.border.assigned) / float64(total)
	y := wInt*c.interior.rate() + wBor*c.border.rate()
	if y < 0 {
		return 0
	}
	if y > 1 {
		return 1
	}
	return y
}

// Std returns the smoothed Bernoulli standard deviation of the estimate's
// underlying indicator, the σ the OCBA rule consumes.
func (c *Candidate) Std() float64 {
	total := c.Samples()
	passEquiv := int(math.Round(c.Yield() * float64(total)))
	return stats.BernoulliStd(passEquiv, total)
}

func norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// ChunkSize is the fixed reference-estimator chunk size. Each chunk owns a
// seed derived from its index, so the estimate depends only on (seed, n) —
// never on the worker count, the machine's GOMAXPROCS, or which process
// (or which node of a fleet) evaluates the chunk. It is the unit the
// distributed yield service shards on: any partition of the chunk index
// space, evaluated anywhere, merges back to the bit-identical estimate.
const ChunkSize = 2048

// ChunkRange identifies one fixed chunk of an n-sample reference stream:
// chunk Index covers sample indices [Lo, Hi) and draws its points from a
// private stream seeded with randx.DeriveSeed(seed, Index). Every chunk
// except possibly the last holds exactly ChunkSize samples, so a chunk's
// contents depend on n only through Hi — full chunks are identical across
// different total sample counts, which is what makes cross-estimate shard
// reuse sound.
type ChunkRange struct {
	Index  int
	Lo, Hi int
}

// NumChunks returns the number of fixed chunks an n-sample reference
// estimate is partitioned into.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ChunkSize - 1) / ChunkSize
}

// Chunks returns the full fixed-chunk partition of an n-sample reference
// estimate, in chunk-index order.
func Chunks(n int) []ChunkRange {
	out := make([]ChunkRange, NumChunks(n))
	for i := range out {
		out[i] = Chunk(n, i)
	}
	return out
}

// Chunk returns chunk ci of the n-sample partition.
func Chunk(n, ci int) ChunkRange {
	lo := ci * ChunkSize
	hi := lo + ChunkSize
	if hi > n {
		hi = n
	}
	return ChunkRange{Index: ci, Lo: lo, Hi: hi}
}

// ChunkPass evaluates chunks [first, last) of the (p, x, n, seed, sampler)
// reference stream and returns the per-chunk passing-sample counts, indexed
// relative to first. It is the body of ReferenceCtx exposed at shard
// granularity: a fleet worker evaluates its assigned chunk range with this,
// and the coordinator merges the integer counts with MergePass — integer
// addition is exact, so the sharded estimate is bit-for-bit the single-node
// one no matter how the chunk space is partitioned or where each shard
// runs. Cancellation and accounting follow ReferenceCtx: the Counter
// advances chunk by chunk as chunks complete, and a structurally failed
// chunk counts nothing.
func ChunkPass(ctx context.Context, p problem.Problem, x []float64, n int, seed uint64, first, last int, o RefOptions) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("yieldsim: reference sample count %d", n)
	}
	if first < 0 || last < first || last > NumChunks(n) {
		return nil, fmt.Errorf("yieldsim: chunk range [%d, %d) outside [0, %d)", first, last, NumChunks(n))
	}
	sampler := o.Sampler
	if sampler == nil {
		sampler = sample.PMC{}
	}
	mSims := simsCounter(p.Name(), sampler.Name())
	var (
		progressMu sync.Mutex
		doneCum    int64
		passCum    int64
	)
	return engine.MapCtx(ctx, o.Workers, last-first, func(i int) (int, error) {
		cr := Chunk(n, first+i)
		t0 := time.Now()
		rng := randx.New(randx.DeriveSeed(seed, uint64(cr.Index)))
		pass, err := chunkPass(p, x, sampler, rng, cr.Hi-cr.Lo)
		if err != nil {
			// A structurally failed chunk's results are untrustworthy, so its
			// samples are not counted as simulations.
			return 0, err
		}
		if o.Counter != nil {
			o.Counter.Add(int64(cr.Hi - cr.Lo))
		}
		mSims.Add(int64(cr.Hi - cr.Lo))
		mChunkSeconds.Observe(time.Since(t0).Seconds())
		if o.Progress != nil {
			progressMu.Lock()
			doneCum += int64(cr.Hi - cr.Lo)
			passCum += int64(pass)
			o.Progress(doneCum, passCum)
			progressMu.Unlock()
		}
		return pass, nil
	})
}

// streamRows is the row-block size chunkPass streams a point-wise PMC
// chunk through.
const streamRows = 64

// chunkPass draws one chunk's n-sample plan from rng and returns how many
// of its samples pass. A BatchEvaluator problem gets the whole plan as one
// batch evaluation, so it keeps its compiled per-design state (and Newton
// warm starts) alive across the chunk; so do stratified plans (LHS,
// Halton), whose rows depend on the whole chunk. A point-wise problem
// under PMC evaluates every sample on its own anyway, so its plan streams
// through one streamRows-row buffer, drawn and evaluated block by block:
// PMC draws rows in order, so the samples are the whole plan's. Streaming
// keeps a ChunkSize×VarDim plan per worker off the heap, which would
// otherwise set the GC's heap target for everything else in the process.
// Per-sample errors are failed chips.
func chunkPass(p problem.Problem, x []float64, sampler sample.Sampler, rng *randx.Stream, n int) (int, error) {
	_, batch := p.(problem.BatchEvaluator)
	pmc, isPMC := sampler.(sample.PMC)
	if batch || !isPMC {
		ok, _, err := problem.PassFailBatch(p, x, sampler.Draw(rng, n, p.VarDim()))
		return countPass(ok), err
	}
	pass := 0
	blk := sample.NewPlan(min(n, streamRows), p.VarDim())
	for lo := 0; lo < n; lo += len(blk) {
		blk = blk[:min(len(blk), n-lo)]
		pmc.Fill(rng, blk)
		ok, _, err := problem.PassFailBatch(p, x, blk)
		if err != nil {
			return 0, err
		}
		pass += countPass(ok)
	}
	return pass, nil
}

// countPass counts the passing samples of a batch.
func countPass(ok []bool) int {
	pass := 0
	for _, v := range ok {
		if v {
			pass++
		}
	}
	return pass
}

// MergePass folds per-chunk passing-sample counts (chunk-index order) of a
// complete n-sample partition into the final yield estimate. The counts are
// integers, so the fold is exact and the result equals ReferenceCtx's for
// the same chunks regardless of how they were grouped into shards or which
// node evaluated each one.
func MergePass(counts []int, n int) float64 {
	pass := 0
	for _, p := range counts {
		pass += p
	}
	return float64(pass) / float64(n)
}

// Reference computes a high-accuracy plain-MC yield estimate (the paper's
// 50,000-sample analysis) using all available cores. It bypasses acceptance
// sampling so the answer is an unbiased Monte-Carlo estimate. The returned
// sims is the number of simulator calls (= n). The counter, when non-nil,
// is incremented; experiment harnesses usually pass nil so reference
// evaluations do not pollute method costs.
func Reference(p problem.Problem, x []float64, n int, seed uint64, counter *Counter) (float64, int, error) {
	return ReferenceWorkers(p, x, n, seed, counter, 0)
}

// ReferenceWorkers is Reference with an explicit worker count (0 =
// GOMAXPROCS). The sample stream is split into fixed-size chunks, each with
// a seed derived from its chunk index, so every worker count — including 1
// — produces the identical estimate.
func ReferenceWorkers(p problem.Problem, x []float64, n int, seed uint64, counter *Counter, workers int) (float64, int, error) {
	return ReferenceCtx(nil, p, x, n, seed, RefOptions{Workers: workers, Counter: counter})
}

// RefOptions configures ReferenceCtx, the full-parameter reference
// estimator behind ReferenceWorkers and the yield service.
type RefOptions struct {
	// Workers bounds the chunk-evaluation goroutines (0 = GOMAXPROCS,
	// 1 = sequential); the estimate is identical for every value.
	Workers int
	// Sampler generates each chunk's sample plan (nil = PMC, the plain-MC
	// analysis ReferenceWorkers runs). Stratified plans (LHS, Halton)
	// stratify within each fixed-size chunk — the estimate stays unbiased
	// and deterministic for a given (seed, n), it just scopes the variance
	// reduction to ChunkSize-sample blocks.
	Sampler sample.Sampler
	// Counter, when non-nil, is incremented chunk by chunk as chunks
	// complete, so a cancelled run's accounting reflects the work actually
	// spent (a completed run still totals exactly n; a structurally failed
	// chunk counts nothing).
	Counter *Counter
	// Progress, when non-nil, is called after each completed chunk with
	// the cumulative simulated and passing sample counts. Calls are
	// serialized and both counts are consistent snapshots, but arrive in
	// chunk-completion order, which depends on scheduling — progress is a
	// monitoring feed, never an input to the estimate.
	Progress func(done, pass int64)
}

// ReferenceCtx is the reference estimator under a cancellation context
// (nil = never cancelled) with explicit sampling options. The sample stream
// is split into fixed-size chunks, each with a seed derived from its chunk
// index, so for a given (seed, n, sampler) every worker count — and the
// local-CLI vs served execution path — produces the bit-identical estimate.
// On cancellation it returns the context's error; chunks already handed to
// the simulator finish first, so the simulation counter stops advancing
// within one chunk per worker.
func ReferenceCtx(ctx context.Context, p problem.Problem, x []float64, n int, seed uint64, o RefOptions) (float64, int, error) {
	counts, err := ChunkPass(ctx, p, x, n, seed, 0, NumChunks(n), o)
	if err != nil {
		return 0, 0, err
	}
	return MergePass(counts, n), n, nil
}
