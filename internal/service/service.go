// Package service is the yield-computation daemon behind cmd/mohecod: a
// job-oriented server that runs yield estimates and full optimizations from
// the scenario registry on a bounded worker pool, dedupes identical and
// in-flight requests through a canonical-key result cache, and exposes the
// whole thing over a stdlib-only HTTP API (see http.go) with a matching
// client (client.go).
//
// # Determinism contract
//
// A served job and the local CLI run one resolved configuration. Every
// request goes through ResolveYield or ResolveOptimize, the one place its
// defaults are filled in and its fields validated, and the CLIs resolve
// through the same functions. A yield job then evaluates its spec's chunk
// range in-process through the one chunk-range executor (yieldsim.ChunkPass
// over the spec's problem and sampler) or, on a coordinator, across the
// fleet's shards, which run that same executor; the integer per-chunk pass
// counts merge exactly, so the local CLI's yieldsim.ReferenceCtx gives the
// same bits. An optimize job runs core.Optimize with the resolved base
// options. Worker counts never change results anywhere in the library, so a
// served result is bit-identical to the in-process one at the same request
// — which is also what makes result caching sound: the cache key is the
// request's canonical form (resolved defaults, exact float bits of x), and
// two requests with equal keys have equal results by construction.
//
// # Job lifecycle
//
// Submit resolves and validates the request, canonicalizes it into a key,
// and either coalesces onto an existing job with that key (queued, running
// or completed — the dedupe and the result cache are the same map) or
// enqueues a new job. A FIFO queue feeds a fixed pool of job runners; each
// job owns a context derived from the server's, and DELETE /v1/jobs/{id}
// (or server shutdown) cancels it — the cancellation reaches the simulator
// chunk loops via engine.ForEachNCtx, so a killed job stops burning CPU
// within one evaluation chunk per worker. Completed jobs (done, failed or
// cancelled) enter a bounded LRU; only done jobs stay addressable by key,
// so a failed or cancelled request re-runs when asked again.
package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/eda-go/moheco/internal/core"
	_ "github.com/eda-go/moheco/internal/lineasybo" // register the BO optimizer backend
	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// Config tunes the server; the zero value is usable.
type Config struct {
	// Workers bounds the simulation goroutines inside each running job
	// (0 = GOMAXPROCS). Results never depend on it.
	Workers int
	// Jobs is the number of concurrently running jobs (0 = 2). Queued
	// jobs start in FIFO order.
	Jobs int
	// QueueSize bounds the pending-job queue (0 = 256); submissions
	// beyond it are rejected with ErrQueueFull rather than accepted into
	// an unbounded backlog.
	QueueSize int
	// CacheSize bounds the completed jobs retained for result reuse and
	// status lookup (0 = 256), evicted least-recently-used.
	CacheSize int
	// Log, when non-nil, receives one line per job transition (and, at
	// LogLevel debug, per-shard scheduler chatter). The raw *log.Logger is
	// kept for compatibility; internally it is wrapped in a leveled
	// obs.Logger.
	Log *log.Logger
	// LogLevel filters Log output; the zero value (info) keeps the
	// pre-leveled behavior minus per-shard chatter, which now needs debug.
	LogLevel obs.Level
	// Metrics is the registry the server instruments itself into (nil =
	// obs.Default()). Tests running several servers in one process inject
	// private registries so counters don't bleed between them.
	Metrics *obs.Registry
	// Fleet configures multi-node operation; the zero value is a
	// single-node server.
	Fleet FleetConfig
	// Transport, when non-nil, carries every outbound fleet request this
	// node makes — heartbeats, shard leases, replication pushes, election
	// probes (nil = http.DefaultTransport). It exists as a seam: chaos
	// tests wrap it to inject deterministic faults without production code
	// knowing faults exist.
	Transport http.RoundTripper
	// Hooks observe scheduler events; the zero value observes nothing.
	Hooks Hooks
}

// Hooks are optional observation points on the shard scheduler. They fire
// outside scheduler locks, after the observed event took effect; tests
// wire chaos triggers (kill-the-coordinator-at-shard-N) into them.
type Hooks struct {
	// ShardLeased fires after a shard lease is handed to a node.
	ShardLeased func(node string, sh Shard)
}

// FleetConfig describes this server's place in a multi-node fleet.
type FleetConfig struct {
	// Coordinator enables the shard scheduler: yield jobs are split into
	// deterministic chunk-range shards served to pull-based workers on
	// POST /v1/shards/lease, and the merged result is bit-identical to the
	// single-node run.
	Coordinator bool
	// Join, when non-empty, is the coordinator URL (comma-separated
	// failover list) whose fleet this server joins as a worker: a pull
	// loop leases shards, executes them locally, and reports the per-chunk
	// pass counts back. The server still answers its own API.
	Join string
	// Node names this node in the fleet; leases and /healthz report it
	// (empty = "<role>-<pid>").
	Node string
	// Lease bounds how long a dispatched shard may stay unacknowledged
	// before the coordinator re-dispatches it to a surviving node
	// (0 = 15s).
	Lease time.Duration
	// ShardSamples is the target shard size in samples, rounded up to
	// whole yieldsim.ChunkSize chunks (0 = 8192).
	ShardSamples int
	// NoSelfWork keeps the coordinator from executing shards itself,
	// making it dispatch-only (tests use it to force remote execution; a
	// default coordinator is also a worker, so a 1-process coordinator
	// still completes jobs).
	NoSelfWork bool
	// AdvertiseURL is the base URL fleet peers can reach this node's own
	// API at. A worker announces it in heartbeats; only URL-bearing nodes
	// receive replicated state and stand in hand-off elections. Empty
	// means the node works but can never be promoted.
	AdvertiseURL string
	// Heartbeat is the worker heartbeat period (0 = 2s). The coordinator
	// counts a peer live for four periods past its last contact.
	Heartbeat time.Duration
}

// Version identifies the build in /healthz; release builds stamp it via
// `-ldflags "-X github.com/eda-go/moheco/internal/service.Version=..."`.
var Version = "dev"

// Submission and lookup errors the HTTP layer maps to status codes.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrClosed    = errors.New("service: server closed")
	ErrNotFound  = errors.New("service: no such job")
)

// State is a job's lifecycle state.
type State string

// Job states. Queued and running jobs are live; done, failed and cancelled
// jobs are completed (retained in the LRU until evicted).
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is a completed one.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Progress is a job's monitoring snapshot: samples simulated so far for
// yield jobs (with the running estimate and its Bernoulli std), generations
// finished for optimize jobs (with the best yield so far).
type Progress struct {
	Done  int64   `json:"done"`
	Total int64   `json:"total"`
	Yield float64 `json:"yield"`
	Std   float64 `json:"std,omitempty"`
}

// YieldRequest asks for a Monte-Carlo yield estimate. ResolveYield fills
// omitted fields from the scenario's defaults: X to the reference design,
// N (when ≤ 0) to the scenario's reference sample count, Seed to 1, Sampler
// to "pmc" and Tran to the scenario's built-in transient window. `yieldest`
// builds one from its flags and resolves it the same way, locally or
// served. Seed is a pointer so that seed 0 — a perfectly valid seed
// locally — stays expressible on the wire (`"seed": 0` ≠ an omitted seed).
type YieldRequest struct {
	Scenario string    `json:"scenario"`
	X        []float64 `json:"x,omitempty"`
	N        int       `json:"n,omitempty"`
	Seed     *uint64   `json:"seed,omitempty"`
	Sampler  string    `json:"sampler,omitempty"`
	// Tran overrides the transient window of a time-domain scenario; it is
	// an error on scenarios without one. Zero fields keep the scenario's
	// defaults. The resolved window is part of the canonical request key —
	// two requests differing only in tran options never share a cached
	// result, and a request spelling out the defaults coalesces with one
	// that omits them.
	Tran *TranSpec `json:"tran,omitempty"`
}

// TranSpec is the wire form of a transient window override: stop time,
// step (initial step in adaptive mode, uniform step in fixed mode) and
// integrator mode ("adaptive" or "fixed"; empty keeps the scenario's
// mode).
type TranSpec struct {
	TStop float64 `json:"tstop,omitempty"`
	Step  float64 `json:"step,omitempty"`
	Mode  string  `json:"mode,omitempty"`
}

// Seed returns a *uint64 for a request's Seed field.
func Seed(v uint64) *uint64 { return &v }

// YieldResult is a completed yield job's payload, echoing the resolved
// request so a cached result is self-describing.
type YieldResult struct {
	Scenario  string    `json:"scenario"`
	X         []float64 `json:"x"`
	N         int       `json:"n"`
	Seed      uint64    `json:"seed"`
	Sampler   string    `json:"sampler"`
	Tran      *TranSpec `json:"tran,omitempty"`
	Yield     float64   `json:"yield"`
	Std       float64   `json:"std"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// OptimizeRequest asks for a full yield optimization with the paper's
// default parameters. ResolveOptimize fills omitted fields: Method
// "moheco", Optimizer core.DefaultBackend, MaxSims the scenario default,
// and MaxGens and Seed from core.DefaultOptions (Seed is a pointer for the
// same seed-0 reason as YieldRequest). `mohecorun` builds one from its
// flags and resolves it the same way, locally or served.
type OptimizeRequest struct {
	Scenario string `json:"scenario"`
	Method   string `json:"method,omitempty"`
	// Optimizer names the search backend from the core registry
	// (GET /v1/scenarios advertises the available names). Method picks the
	// yield-estimation flow; Optimizer picks the searcher driving it.
	Optimizer string  `json:"optimizer,omitempty"`
	MaxSims   int     `json:"max_sims,omitempty"`
	MaxGens   int     `json:"max_gens,omitempty"`
	Seed      *uint64 `json:"seed,omitempty"`
}

// OptimizeResult is a completed optimize job's payload.
type OptimizeResult struct {
	Scenario    string    `json:"scenario"`
	Method      string    `json:"method"`
	Optimizer   string    `json:"optimizer"`
	Seed        uint64    `json:"seed"`
	Feasible    bool      `json:"feasible"`
	BestX       []float64 `json:"best_x,omitempty"`
	BestYield   float64   `json:"best_yield"`
	BestSamples int       `json:"best_samples"`
	TotalSims   int64     `json:"total_sims"`
	Generations int       `json:"generations"`
	StopReason  string    `json:"stop_reason"`
	ElapsedMS   float64   `json:"elapsed_ms"`
}

// Status is the wire representation of a job.
type Status struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Scenario string          `json:"scenario"`
	State    State           `json:"state"`
	Cached   bool            `json:"cached,omitempty"`
	Error    string          `json:"error,omitempty"`
	Progress *Progress       `json:"progress,omitempty"`
	Yield    *YieldResult    `json:"yield,omitempty"`
	Optimize *OptimizeResult `json:"optimize,omitempty"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	// Trace summarizes the job's span record once it reaches a terminal
	// state: queue vs run time, shard count and node attribution. The full
	// trace is at GET /v1/jobs/{id}/trace while retained.
	Trace *TraceSummary `json:"trace,omitempty"`
}

// Job is one submitted computation. All mutable fields are guarded by mu;
// the HTTP layer only ever sees Status snapshots.
type Job struct {
	ID       string
	Kind     string
	Key      string
	Scenario string

	ctx    context.Context
	cancel context.CancelFunc
	run    func(ctx context.Context, j *Job) error
	done   chan struct{}

	// trace is the job's span record, set by add for every job.
	// queueSpan/runSpan bracket the two lifecycle phases.
	trace     *obs.Trace
	queueSpan obs.SpanID
	runSpan   obs.SpanID

	mu        sync.Mutex
	state     State
	finalized bool
	err       error
	progress  Progress
	yield     *YieldResult
	optimize  *OptimizeResult
	created   time.Time
	started   time.Time
	finished  time.Time
	elem      *list.Element // retention-LRU slot once completed
}

// Status returns a consistent snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:       j.ID,
		Kind:     j.Kind,
		Scenario: j.Scenario,
		State:    j.state,
		Created:  j.created,
		Yield:    j.yield,
		Optimize: j.optimize,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.progress.Done > 0 {
		p := j.progress
		st.Progress = &p
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state.Terminal() && j.trace != nil {
		st.Trace = summarizeTrace(j.trace.View())
	}
	return st
}

// Wait blocks until the job completes or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done returns the channel closed when the job completes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation; the job transitions to cancelled once its
// in-flight evaluation chunks drain (or immediately if still queued).
func (j *Job) Cancel() { j.cancel() }

func (j *Job) setProgress(p Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// Server is the yield-computation daemon core, independent of HTTP.
type Server struct {
	cfg     Config
	counter *yieldsim.Counter
	log     *obs.Logger
	metrics *obs.Registry
	sm      *serverMetrics
	clk     clock // wallClock; shared with the coordinator and fleet clients
	started time.Time
	node    string
	httpc   *http.Client // outbound fleet traffic (Config.Transport seam)
	replica *replica     // fleet state replicated onto this node
	// shards is the node's one warm-shard store: replication fills it on a
	// worker, and the coordinator (started at New or by promotion) serves
	// and fills it, so a promoted node adopts what was replicated as is.
	shards *lruCache[[]int]

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	queue   chan *Job

	drainOnce sync.Once
	drainCh   chan struct{}  // closed by Drain: stop leasing, finish in-flight
	shardWG   sync.WaitGroup // live shard-runner loops (Drain waits on them)

	fleetMu sync.Mutex
	fleet   fleetView // a worker's last confirmed picture of its fleet

	mu       sync.Mutex
	coord    *Coordinator // non-nil while this server schedules fleet shards (set at start or by promotion)
	closed   bool
	seq      int64
	jobs     map[string]*Job // by ID, live + retained
	byKey    map[string]*Job // dedupe/result cache: canonical key → live or done job
	retained *list.List      // completed jobs, least recently used at front
}

// getCoord returns the shard scheduler when this node currently
// coordinates the fleet, nil otherwise. It is a moving target: a worker
// that wins a hand-off election becomes a coordinator at runtime, so yield
// jobs and HTTP handlers must consult it per use, never capture it at
// startup.
func (s *Server) getCoord() *Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord
}

// New starts a server with cfg's worker pool running.
func New(cfg Config) *Server {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	clk := wallClock{}
	s := &Server{
		cfg:      cfg,
		counter:  &yieldsim.Counter{},
		log:      obs.NewLogger(cfg.Log, cfg.LogLevel),
		metrics:  reg,
		sm:       newServerMetrics(reg),
		clk:      clk,
		started:  clk.Now(),
		httpc:    &http.Client{Transport: cfg.Transport},
		replica:  newReplica(cfg.CacheSize),
		shards:   newLRUCache[[]int](shardCacheSize),
		baseCtx:  ctx,
		stop:     cancel,
		queue:    make(chan *Job, cfg.QueueSize),
		drainCh:  make(chan struct{}),
		jobs:     make(map[string]*Job),
		byKey:    make(map[string]*Job),
		retained: list.New(),
	}
	// Scrape-time gauges: node-local views over live state. GaugeFuncs are
	// excluded from fleet snapshots, so a merged scrape never double-counts
	// them.
	reg.GaugeFunc("service_queue_depth", func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("service_sims", func() float64 { return float64(s.counter.Total()) })
	reg.GaugeFunc("service_uptime_seconds", func() float64 { return s.Uptime().Seconds() })
	s.node = cfg.Fleet.Node
	if s.node == "" {
		s.node = fmt.Sprintf("%s-%d", fleetRole(cfg.Fleet.Coordinator, cfg.Fleet.Join), os.Getpid())
	}
	if cfg.Fleet.Coordinator {
		s.startCoordinator()
	}
	if cfg.Fleet.Join != "" {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.logf("worker %s: joining fleet at %s", s.node, cfg.Fleet.Join)
			s.runWorkerFleet()
		}()
	}
	for i := 0; i < cfg.Jobs; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s
}

// Close cancels every live job, stops the runners and finalizes whatever
// was still queued. Safe to call once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	live := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	s.stop()
	for _, j := range live {
		j.cancel()
	}
	s.wg.Wait()
	// Runners are gone; drain and finalize jobs stuck in the queue so
	// their waiters unblock.
	for {
		select {
		case j := <-s.queue:
			s.finalize(j, context.Canceled)
		default:
			return
		}
	}
}

// Sims returns the total simulator invocations the server has performed.
func (s *Server) Sims() int64 { return s.counter.Total() }

// Uptime returns the time since New.
func (s *Server) Uptime() time.Duration { return s.clk.Now().Sub(s.started) }

// Get returns the job with the given ID, refreshing its retention slot.
func (s *Server) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.elem != nil {
		s.retained.MoveToBack(j.elem)
	}
	return j, nil
}

// Cancel cancels the job with the given ID.
func (s *Server) Cancel(id string) (*Job, error) {
	j, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	j.cancel()
	return j, nil
}

// JobCounts returns the number of jobs per state among those retained.
func (s *Server) JobCounts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := make(map[State]int)
	for _, j := range s.jobs {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	return counts
}

// Jobs returns status snapshots of every retained job, newest first.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	// IDs are zero-padded sequence numbers: descending ⇒ newest first.
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// SubmitYield resolves, canonicalizes and enqueues a yield-estimate job.
// The returned bool reports a coalesced/cached hit: the job already existed
// (in flight or done) for the same canonical request.
func (s *Server) SubmitYield(req YieldRequest) (*Job, bool, error) {
	spec, _, _, err := ResolveYield(req)
	if err != nil {
		return nil, false, err
	}
	key := yieldKey(spec)
	return s.add("yield", spec.Scenario, key, s.yieldRun(key, spec))
}

// yieldRun builds the run closure for a yield job from its canonical key
// and resolved spec — shared by fresh submissions and by jobs a promoted
// coordinator resumes from replicated specs. A result another node
// replicated here is served as-is with zero simulation; otherwise the spec
// is announced to the fleet's peers (so a coordinator crash mid-run loses
// no accepted work), executed, and the finished result is replicated in
// turn. A coordinator runs the spec across its fleet, any other node runs
// it in-process through runChunks; both return the exact per-chunk
// passing-sample counts of the spec's deterministic sample stream, which
// yieldsim.MergePass folds, so where it ran never shows in the estimate. Optimize jobs stay local: the memetic loop is sequential across
// generations, so there is no chunk structure to shard (its inner
// Monte-Carlo batches already parallelize in-process).
func (s *Server) yieldRun(key string, spec YieldSpec) func(context.Context, *Job) error {
	return func(ctx context.Context, j *Job) error {
		if res, ok := s.replica.result(key); ok {
			s.logf("job %s served from replicated result (key %q)", j.ID, key)
			j.trace.Event("replicated-result", nil)
			j.mu.Lock()
			j.yield = res
			j.mu.Unlock()
			return nil
		}
		s.replicateToPeers(ReplicateRequest{Jobs: []ReplicatedJob{{Key: key, Spec: spec}}})
		start := s.clk.Now()
		// The trace rides the context so the shard scheduler can
		// attribute per-shard spans to this job.
		ctx = obs.ContextWithTrace(ctx, j.trace)
		progress := func(done, pass int64) {
			est := float64(pass) / float64(done)
			j.setProgress(Progress{
				Done:  done,
				Total: int64(spec.N),
				Yield: est,
				Std:   math.Sqrt(est * (1 - est) / float64(done)),
			})
		}
		var counts []int
		var err error
		if c := s.getCoord(); c != nil {
			counts, err = c.Yield(ctx, spec, progress)
		} else {
			counts, err = runChunks(ctx, spec, 0, yieldsim.NumChunks(spec.N), s.cfg.Workers, s.counter, progress)
		}
		if err != nil {
			return err
		}
		y := yieldsim.MergePass(counts, spec.N)
		res := &YieldResult{
			Scenario:  spec.Scenario,
			X:         spec.X,
			N:         spec.N,
			Seed:      spec.Seed,
			Sampler:   spec.Sampler,
			Tran:      spec.Tran,
			Yield:     y,
			Std:       math.Sqrt(y * (1 - y) / float64(spec.N)),
			ElapsedMS: sinceMS(s.clk, start),
		}
		j.mu.Lock()
		j.yield = res
		j.mu.Unlock()
		s.replicateToPeers(ReplicateRequest{Results: []ReplicatedResult{{Key: key, Result: res}}})
		return nil
	}
}

// SubmitOptimize resolves, canonicalizes and enqueues an optimization job.
func (s *Server) SubmitOptimize(req OptimizeRequest) (*Job, bool, error) {
	req, base, err := ResolveOptimize(req)
	if err != nil {
		return nil, false, err
	}
	key := optimizeKey(req)
	run := func(ctx context.Context, j *Job) error {
		start := s.clk.Now()
		p := sharedProblem(scenario.MustGet(req.Scenario)) // ResolveOptimize checked the name
		// The server counter is the parent of the run's own ledger: every
		// simulation reaches /healthz as it happens, while Result.TotalSims
		// (and the streamed CumSims) count only this optimization, exactly
		// as the local CLI reports it.
		opts := base
		opts.Workers = s.cfg.Workers
		opts.Ctx = ctx
		opts.Counter = s.counter
		// Generation spans are timed here, between callbacks: GenRecord
		// carries no wall-clock fields by design (Results must stay
		// bit-identical across runs), so the service supplies the clock.
		genStart := start
		var prevSims int64
		opts.OnGeneration = func(r core.GenRecord) {
			j.trace.Event("generation", func(sp *obs.Span) {
				sp.DurationMS = sinceMS(s.clk, genStart)
				sp.Sims = r.CumSims - prevSims
				sp.Node = s.node
			})
			genStart = s.clk.Now()
			prevSims = r.CumSims
			j.setProgress(Progress{
				Done:  int64(r.Gen),
				Total: int64(req.MaxGens),
				Yield: r.BestYield,
			})
		}
		res, err := core.Optimize(p, opts)
		if err != nil {
			return err
		}
		j.mu.Lock()
		j.optimize = &OptimizeResult{
			Scenario:    req.Scenario,
			Method:      req.Method,
			Optimizer:   res.Backend,
			Seed:        opts.Seed,
			Feasible:    res.Feasible,
			BestX:       res.BestX,
			BestYield:   res.BestYield,
			BestSamples: res.BestSamples,
			TotalSims:   res.TotalSims,
			Generations: res.Generations,
			StopReason:  res.StopReason,
			ElapsedMS:   sinceMS(s.clk, start),
		}
		j.mu.Unlock()
		return nil
	}
	return s.add("optimize", req.Scenario, key, run)
}

// add coalesces onto an existing job with the same canonical key or
// enqueues a new one.
func (s *Server) add(kind, scenarioName, key string, run func(context.Context, *Job) error) (*Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if kind == "yield" {
		s.sm.submittedYield.Inc()
	} else {
		s.sm.submittedOptimize.Inc()
	}
	if j, ok := s.byKey[key]; ok {
		// Coalesce only onto a completed result or a genuinely live job. A
		// job whose cancellation has been requested but has not yet
		// finalized still holds its key slot (finalize releases it later);
		// handing it to a new identical request would resolve that request
		// with the cancelled — possibly partial — outcome of someone else's
		// DELETE. Such a job falls through, and the fresh job enqueued
		// below takes over the key (finalize's ownership check keeps the
		// old job from deleting the new mapping).
		j.mu.Lock()
		done := j.state == StateDone
		j.mu.Unlock()
		if done || j.ctx.Err() == nil {
			if j.elem != nil {
				s.retained.MoveToBack(j.elem)
			}
			if done {
				s.sm.cacheHits.Inc()
			} else {
				s.sm.cacheCoalesced.Inc()
			}
			return j, true, nil
		}
	}
	s.sm.cacheMisses.Inc()
	s.seq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID:       fmt.Sprintf("j%08d", s.seq),
		Kind:     kind,
		Key:      key,
		Scenario: scenarioName,
		ctx:      ctx,
		cancel:   cancel,
		run:      run,
		done:     make(chan struct{}),
		state:    StateQueued,
		created:  s.clk.Now(),
	}
	j.trace = obs.NewTrace(j.ID, kind)
	j.queueSpan = j.trace.Begin("queued", nil)
	j.runSpan = -1
	select {
	case s.queue <- j:
	default:
		cancel()
		return nil, false, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.byKey[key] = j
	s.logf("job %s %s %s queued (key %q)", j.ID, kind, scenarioName, key)
	return j, false, nil
}

// runner is one slot of the fixed job pool: it pops jobs in FIFO order and
// runs them to completion under their own contexts.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			if j.ctx.Err() != nil {
				// Cancelled (or the server closed) while still queued.
				s.finalize(j, j.ctx.Err())
				continue
			}
			j.mu.Lock()
			j.state = StateRunning
			j.started = s.clk.Now()
			queued := j.started.Sub(j.created)
			j.mu.Unlock()
			j.trace.End(j.queueSpan, nil)
			s.sm.queueSeconds.Observe(queued.Seconds())
			j.runSpan = j.trace.Begin("run", func(sp *obs.Span) { sp.Node = s.node })
			s.logf("job %s running", j.ID)
			s.finalize(j, j.run(j.ctx, j))
		}
	}
}

// finalize records the job's terminal state, unblocks waiters, and
// maintains the result cache: done jobs stay addressable by key, failed
// and cancelled ones do not, and the completed-job LRU is trimmed to the
// configured size.
func (s *Server) finalize(j *Job, err error) {
	j.mu.Lock()
	if j.finalized {
		j.mu.Unlock()
		return
	}
	j.finalized = true
	j.finished = s.clk.Now()
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCancelled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	j.run = nil // release the submit-time closure (problem instance, request copy)
	state := j.state
	started := j.started
	j.mu.Unlock()
	j.cancel() // release the context's resources in every path

	j.trace.End(j.queueSpan, nil) // no-op unless cancelled while still queued
	j.trace.End(j.runSpan, nil)
	j.trace.Event(string(state), nil)
	if !started.IsZero() {
		s.sm.runSeconds.Observe(s.clk.Now().Sub(started).Seconds())
	}
	// Record the terminal state before waking the waiters: a client that
	// waits for its job and then scrapes /metrics must count it.
	s.sm.jobState(state)
	close(j.done)
	s.logf("job %s %s", j.ID, state)

	s.mu.Lock()
	defer s.mu.Unlock()
	if state != StateDone && s.byKey[j.Key] == j {
		delete(s.byKey, j.Key)
	}
	j.elem = s.retained.PushBack(j)
	for s.retained.Len() > s.cfg.CacheSize {
		old := s.retained.Remove(s.retained.Front()).(*Job)
		delete(s.jobs, old.ID)
		if s.byKey[old.Key] == old {
			delete(s.byKey, old.Key)
		}
	}
}

// logf keeps the historical one-line-per-transition log shape at Info level.
func (s *Server) logf(format string, args ...any) {
	s.log.Infof(format, args...)
}
