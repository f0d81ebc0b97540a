package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/problem"
)

// probStats accumulates what the wrapped problem saw: the simulator layer
// (circuits) as the layers above it call it.
type probStats struct {
	busyNS  atomic.Int64 // summed call durations across workers
	calls   atomic.Int64 // EvaluateBatch calls
	samples atomic.Int64 // samples evaluated under variation
	failed  atomic.Int64 // samples that returned an error
	nominal atomic.Int64 // Evaluate calls with nil ξ (feasibility screen)
}

// tracedProblem times every call into the circuits layer. It forwards to
// the wrapped problem unchanged, so results are bit-identical.
type tracedProblem struct {
	problem.Problem
	st *probStats
}

func (t *tracedProblem) Evaluate(x, xi []float64) ([]float64, error) {
	t0 := time.Now()
	perf, err := t.Problem.Evaluate(x, xi)
	t.st.busyNS.Add(int64(time.Since(t0)))
	if xi == nil {
		t.st.nominal.Add(1)
		return perf, err
	}
	t.st.samples.Add(1)
	if err != nil {
		t.st.failed.Add(1)
	}
	return perf, err
}

// EvaluateBatch forwards through problem.EvaluateBatch, so the problem's
// own batch path runs when it has one and the wrapper sees every batch the
// callers form. A mis-shaped batch counts as failed samples and is passed
// on as one, so the caller reports the same structural error.
func (t *tracedProblem) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	t0 := time.Now()
	perfs, errs, err := problem.EvaluateBatch(t.Problem, x, xis)
	t.st.busyNS.Add(int64(time.Since(t0)))
	t.st.calls.Add(1)
	t.st.samples.Add(int64(len(xis)))
	if err != nil {
		t.st.failed.Add(int64(len(xis)))
		return nil, nil
	}
	for _, err := range errs {
		if err != nil {
			t.st.failed.Add(1)
		}
	}
	return perfs, errs
}

// wrap returns p itself on an untraced pass (l == nil), else p behind the
// timing wrapper feeding l's record for the named scenario.
func (l *layers) wrap(p problem.Problem, scenario string) problem.Problem {
	if l == nil {
		return p
	}
	return &tracedProblem{Problem: p, st: l.scenario(scenario)}
}

// genStats accumulates one backend's generations as seen from OnGeneration.
type genStats struct {
	gens   int
	wallMS float64 // summed generation wall time
	selfMS float64 // generation wall minus simulator busy time ÷ workers
	sims   int64
}

// layers is the traced pass's record: per-layer counts and times gathered
// by the wrappers and by before/after diffs of the obs counters.
type layers struct {
	mu    sync.Mutex
	scen  map[string]*probStats
	wallS float64 // optimize: summed job wall time

	// optimize
	gen        map[string]*genStats // by backend
	obsDiff    map[string]float64   // obs.Default counter deltas over the measured calls
	lanesCount float64              // spice_lockstep_lanes observations
	lanesSum   float64
	gapPP      []float64 // |reported − reference| yield per returned design

	// estimate
	refWallS   float64 // summed ReferenceCtx wall time
	refSamples int64
	refScen    map[string]*refStats // the same by scenario

	// serve
	svcQueueMS, svcRunMS, svcOverheadMS []float64
	svcHitFrac, svcCoalesced            float64

	// fleet
	fleetJobs, fleetShards, fleetWarm, fleetWorker, fleetExec int
	fleetShardRunMS, fleetJobRunMS                            float64
	fleetLeaseWaitMS, fleetLeaseWaitSumMS, fleetRedispatched  float64
}

// refStats is one scenario's share of the estimate pass.
type refStats struct {
	wallS   float64
	samples int64
}

func newLayers() *layers {
	return &layers{scen: map[string]*probStats{}, gen: map[string]*genStats{}, refScen: map[string]*refStats{}}
}

func (l *layers) scenario(name string) *probStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.scen[name]
	if !ok {
		st = &probStats{}
		l.scen[name] = st
	}
	return st
}

// busyNS sums simulator busy time across every wrapped scenario.
func (l *layers) busyNS() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t int64
	for _, st := range l.scen {
		t += st.busyNS.Load()
	}
	return t
}

// obsCounters names the process-wide counters the traced passes diff.
var obsCounters = []string{
	"spice_newton_iterations_total",
	"spice_factorizations_total",
	"engine_tasks_total",
	"engine_busy_ns_total",
	"core_generations_total",
	"core_nm_triggers_total",
}

// obsSnap reads the counters (and the lockstep-lanes histogram) of a
// registry; two snapshots diff into the work a pass caused.
type obsSnap struct {
	c          map[string]float64
	lanesCount float64
	lanesSum   float64
}

func readObs(reg *obs.Registry) obsSnap {
	s := reg.Snapshot()
	o := obsSnap{c: map[string]float64{}}
	for k, v := range s.Counters {
		o.c[k] = float64(v)
	}
	if h, ok := s.Histograms["spice_lockstep_lanes"]; ok {
		o.lanesCount, o.lanesSum = float64(h.Count), h.Sum
	}
	return o
}

// addObs adds after − before for the named counters to l, so a pass can
// diff around just the calls it measures.
func (l *layers) addObs(before, after obsSnap) {
	if l == nil {
		return
	}
	if l.obsDiff == nil {
		l.obsDiff = map[string]float64{}
	}
	for _, k := range obsCounters {
		l.obsDiff[k] += after.c[k] - before.c[k]
	}
	l.lanesCount += after.lanesCount - before.lanesCount
	l.lanesSum += after.lanesSum - before.lanesSum
}
