package service

import (
	"context"
	"fmt"

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

// instantiate materializes the spec's problem instance (with the resolved
// transient window applied) and sampler. Each call builds a fresh instance:
// problem construction is deterministic, so where — and how often — a spec
// is instantiated never shows in the result.
func (spec YieldSpec) instantiate() (problem.Problem, sample.Sampler, error) {
	sc, err := scenario.Get(spec.Scenario)
	if err != nil {
		return nil, nil, err
	}
	p := sc.New()
	if len(spec.X) != p.Dim() {
		return nil, nil, fmt.Errorf("service: scenario %q needs %d design values, got %d", spec.Scenario, p.Dim(), len(spec.X))
	}
	if _, err := ResolveTran(p, spec.Scenario, spec.Tran); err != nil {
		return nil, nil, err
	}
	smp, err := sample.ByName(spec.Sampler)
	if err != nil {
		return nil, nil, err
	}
	return p, smp, nil
}

// localYield evaluates spec in-process on the shared worker pool: the
// full chunk range through yieldsim.ChunkPass, the same code a fleet worker
// runs per shard. It returns the passing-sample count out of spec.N.
// workers bounds the chunk-evaluation goroutines (0 = GOMAXPROCS) and never
// changes the result; counter, when non-nil, receives every simulator
// invocation; progress, when non-nil, receives serialized monotone
// cumulative (done, pass) counts — a monitoring feed, never an input to
// the result.
func localYield(ctx context.Context, spec YieldSpec, workers int, counter *yieldsim.Counter, progress func(done, pass int64)) (int64, error) {
	p, smp, err := spec.instantiate()
	if err != nil {
		return 0, err
	}
	counts, err := yieldsim.ChunkPass(ctx, p, spec.X, spec.N, spec.Seed, 0, yieldsim.NumChunks(spec.N), yieldsim.RefOptions{
		Workers:  workers,
		Sampler:  smp,
		Counter:  counter,
		Progress: progress,
	})
	if err != nil {
		return 0, err
	}
	var pass int64
	for _, c := range counts {
		pass += int64(c)
	}
	return pass, nil
}
