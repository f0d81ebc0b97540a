package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// YieldSpec is the fully resolved form of a yield-estimate request: every
// default filled in, the design vector explicit, the transient window
// resolved. It is a pure value — two equal specs denote the bit-identical
// computation — which is what lets it travel over the wire as the payload
// of a fleet shard and be evaluated on any node with the same scenario
// registry.
type YieldSpec struct {
	Scenario string    `json:"scenario"`
	X        []float64 `json:"x"`
	N        int       `json:"n"`
	Seed     uint64    `json:"seed"`
	Sampler  string    `json:"sampler"`
	Tran     *TranSpec `json:"tran,omitempty"`
}

// ResolveYield resolves a yield request into its spec, the problem
// instance to evaluate it on and the sampler. At the scenario's built-in
// transient window the instance is the scenario's shared one (see
// sharedProblem); a window override gets a fresh instance configured to
// it. Omitted fields take the scenario's
// defaults: seed 1, the reference sample count, PMC, the reference design
// and the built-in transient window. It rejects an unknown scenario or
// sampler, a design of the wrong length and an invalid transient override.
// Resolving a resolved spec returns it unchanged. The shared problem
// serves every other resolution of its scenario too, so callers evaluate
// the problem and never configure it.
func ResolveYield(req YieldRequest) (YieldSpec, problem.Problem, sample.Sampler, error) {
	sc, err := scenario.Get(req.Scenario)
	if err != nil {
		return YieldSpec{}, nil, nil, err
	}
	p := sharedProblem(sc)
	spec := YieldSpec{Scenario: req.Scenario, N: req.N, Seed: 1, Sampler: req.Sampler}
	if req.Seed != nil {
		spec.Seed = *req.Seed
	}
	if spec.N <= 0 {
		spec.N = sc.DefaultRefSamples
	}
	if spec.Sampler == "" {
		spec.Sampler = "pmc"
	}
	smp, err := sample.ByName(spec.Sampler)
	if err != nil {
		return YieldSpec{}, nil, nil, err
	}
	spec.Sampler = smp.Name()
	x := req.X
	if x == nil {
		ref, ok := scenario.ReferenceDesign(p)
		if !ok {
			return YieldSpec{}, nil, nil, fmt.Errorf("service: scenario %q has no reference design; pass x", req.Scenario)
		}
		x = ref
	} else if len(x) != p.Dim() {
		return YieldSpec{}, nil, nil, fmt.Errorf("service: scenario %q needs %d design values, got %d", req.Scenario, p.Dim(), len(x))
	}
	spec.X = slices.Clone(x)
	var changed bool
	if spec.Tran, changed, err = tranWindow(p, req.Scenario, req.Tran); err != nil {
		return YieldSpec{}, nil, nil, err
	}
	if changed {
		// A window override is the request's own: it configures a fresh
		// instance, never the shared one.
		// tranWindow only reports a change on a transient scenario.
		p = sc.New()
		if err := p.(tranProblem).SetTranWindow(spec.Tran.TStop, spec.Tran.Step, spec.Tran.Mode == "fixed"); err != nil {
			return YieldSpec{}, nil, nil, err
		}
	}
	return spec, p, smp, nil
}

// shared holds the problem instances resolution hands out at the
// scenarios' built-in transient windows, one per registered scenario, so
// the jobs, shards and chunks of one process evaluate one instance and a
// spice scenario's store of compiled testbenches serves them all. The
// registry bounds it. Problem evaluation is deterministic and safe for
// concurrent use, so which instance evaluates a spec never shows in the
// result.
var shared = struct {
	sync.Mutex
	m map[string]problem.Problem
}{m: map[string]problem.Problem{}}

// sharedProblem returns the shared instance of sc, building it on first
// use.
func sharedProblem(sc scenario.Scenario) problem.Problem {
	shared.Lock()
	defer shared.Unlock()
	p, ok := shared.m[sc.Name]
	if !ok {
		p = sc.New()
		shared.m[sc.Name] = p
	}
	return p
}

// instantiate materializes the spec's problem instance and sampler through
// ResolveYield. A spec is outside input — it arrives from another node or
// from replicated state — so an unresolved one is an error, never silently
// defaulted. The instance is the shared one of the spec's scenario and
// window: evaluation is deterministic, so where — and on which instance —
// a spec is evaluated never shows in the result.
func (spec YieldSpec) instantiate() (problem.Problem, sample.Sampler, error) {
	if spec.N <= 0 || spec.X == nil || spec.Sampler == "" {
		return nil, nil, fmt.Errorf("service: unresolved yield spec for scenario %q (n=%d, %d design values, sampler %q)",
			spec.Scenario, spec.N, len(spec.X), spec.Sampler)
	}
	_, p, smp, err := ResolveYield(YieldRequest{
		Scenario: spec.Scenario,
		X:        spec.X,
		N:        spec.N,
		Seed:     &spec.Seed,
		Sampler:  spec.Sampler,
		Tran:     spec.Tran,
	})
	return p, smp, err
}

// runChunks evaluates chunks [first, last) of spec's sample stream through
// yieldsim.ChunkPass and returns the per-chunk passing-sample counts. It is
// the one executor behind both a single node's whole-range yield job and a
// fleet node's shard. workers bounds the chunk-evaluation goroutines
// (0 = GOMAXPROCS) and never changes the result; counter, when non-nil,
// receives every simulator invocation; progress, when non-nil, receives
// serialized monotone cumulative (done, pass) counts — a monitoring feed,
// never an input to the result.
func runChunks(ctx context.Context, spec YieldSpec, first, last, workers int, counter *yieldsim.Counter, progress func(done, pass int64)) ([]int, error) {
	p, smp, err := spec.instantiate()
	if err != nil {
		return nil, err
	}
	return yieldsim.ChunkPass(ctx, p, spec.X, spec.N, spec.Seed, first, last, yieldsim.RefOptions{
		Workers:  workers,
		Sampler:  smp,
		Counter:  counter,
		Progress: progress,
	})
}

// ResolveOptimize resolves an optimize request and returns it with every
// default filled in, together with the run's base core options. Omitted
// fields resolve to method "moheco", the default optimizer backend, the
// scenario's stage-2 budget, and core.DefaultOptions' generation cap and
// seed. The caller adds only what never changes the result: workers,
// context, counter and progress callback (and, locally, -fixedsims).
func ResolveOptimize(req OptimizeRequest) (OptimizeRequest, core.Options, error) {
	sc, err := scenario.Get(req.Scenario)
	if err != nil {
		return req, core.Options{}, err
	}
	if req.Method == "" {
		req.Method = "moheco"
	}
	m, err := core.ParseMethod(req.Method)
	if err != nil {
		return req, core.Options{}, fmt.Errorf("service: %w", err)
	}
	if req.Optimizer == "" {
		req.Optimizer = core.DefaultBackend
	}
	if !slices.Contains(core.Backends(), req.Optimizer) {
		return req, core.Options{}, fmt.Errorf("service: unknown optimizer %q (registered: %s)",
			req.Optimizer, strings.Join(core.Backends(), ", "))
	}
	if req.MaxSims <= 0 {
		req.MaxSims = sc.DefaultMaxSims
	}
	opts := core.DefaultOptions(m, req.MaxSims)
	if req.MaxGens <= 0 {
		req.MaxGens = opts.MaxGenerations
	}
	if req.Seed != nil {
		opts.Seed = *req.Seed
	}
	req.Seed = Seed(opts.Seed)
	opts.Backend = req.Optimizer
	opts.MaxGenerations = req.MaxGens
	return req, opts, nil
}

// ErrNoTranWindow reports a transient-window override aimed at a scenario
// without a transient stage. CLIs match it (errors.Is) to turn the error
// into a usage error listing the tran-capable scenarios.
var ErrNoTranWindow = errors.New("has no transient window")

// tranProblem is the capability a time-domain problem exposes for window
// configuration (implemented by the circuits package's transient
// scenarios).
type tranProblem interface {
	TranWindow() (tstop, step float64, fixed bool)
	SetTranWindow(tstop, step float64, fixed bool) error
}

// ResolveTran validates a transient-window override against the problem
// and applies it (via SetTranWindow), returning the fully resolved spec —
// nil for scenarios without a transient window, an error when spec targets
// one of those or names an unknown mode. mohecorun resolves its local
// -tstop/-tstep/-tranmode flags through it, and ResolveYield resolves a
// yield request's window through the same tranWindow, so the accepted
// option surface cannot drift between the served and local paths.
func ResolveTran(p any, scenarioName string, spec *TranSpec) (*TranSpec, error) {
	resolved, changed, err := tranWindow(p, scenarioName, spec)
	if err != nil || !changed {
		return resolved, err
	}
	if err := p.(tranProblem).SetTranWindow(resolved.TStop, resolved.Step, resolved.Mode == "fixed"); err != nil {
		return nil, err
	}
	return resolved, nil
}

// tranWindow resolves a transient-window override against p's current
// window without applying it: the resolved spec (nil for a scenario without
// a window), and whether it differs from p's window.
func tranWindow(p any, scenarioName string, spec *TranSpec) (*TranSpec, bool, error) {
	tp, ok := p.(tranProblem)
	if !ok {
		if spec != nil {
			return nil, false, fmt.Errorf("service: scenario %q %w (tran options not applicable)", scenarioName, ErrNoTranWindow)
		}
		return nil, false, nil
	}
	tstop0, step0, fixed0 := tp.TranWindow()
	tstop, step, fixed := tstop0, step0, fixed0
	if spec != nil {
		// Zero means "keep the scenario default"; anything else must be a
		// valid value — silently dropping a negative override would serve
		// the default window for a mistyped request.
		if spec.TStop < 0 || spec.Step < 0 {
			return nil, false, fmt.Errorf("service: invalid tran override tstop=%g step=%g (omit or 0 keeps the scenario default)",
				spec.TStop, spec.Step)
		}
		if spec.TStop > 0 {
			tstop = spec.TStop
		}
		if spec.Step > 0 {
			step = spec.Step
		}
		switch spec.Mode {
		case "":
		case "adaptive":
			fixed = false
		case "fixed":
			fixed = true
		default:
			return nil, false, fmt.Errorf("service: unknown tran mode %q (adaptive | fixed)", spec.Mode)
		}
	}
	mode := "adaptive"
	if fixed {
		mode = "fixed"
	}
	changed := tstop != tstop0 || step != step0 || fixed != fixed0
	return &TranSpec{TStop: tstop, Step: step, Mode: mode}, changed, nil
}
