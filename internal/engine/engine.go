// Package engine is the shared parallel evaluation executor behind every
// simulation-heavy path of the library: per-candidate Monte-Carlo batches
// (yieldsim), OCBA allocation rounds (ocba), nominal-fitness screening
// and population sampling (core), reference estimates and experiment
// repetition loops (exp).
//
// # Concurrency and determinism contract
//
// The engine runs indexed work items on a bounded worker pool. It makes
// exactly one guarantee beyond plain goroutines, and the rest of the
// library is built on it: for a fixed input, the observable outcome of a
// batch is independent of the worker count and of goroutine scheduling.
// That holds because of a division of labour between the engine and its
// callers:
//
//   - Callers keep all randomness in per-item state. Every
//     yieldsim.Candidate owns a private seeded stream
//     (randx.DeriveSeed of the run seed and a candidate sequence
//     number), so the samples a candidate draws depend only on its seed
//     and its own call sequence, never on which worker ran it or when.
//   - Callers decide *what* to run sequentially, and use the pool only to
//     run it. OCBA computes a round's per-candidate increments before any
//     sample is drawn; yieldsim classifies samples into strata and makes
//     thinning decisions before the simulator runs. The parallel phase is
//     pure fan-out over precomputed work.
//   - Each item writes only to its own slot of a result slice; reductions
//     happen sequentially after the pool drains. The only shared mutable
//     state on the hot path is the simulation ledger: a yieldsim.Counter
//     chain (a run's own ledger and the host counters above it), where
//     each charge is one atomic add per link, so every final count is
//     order-independent.
//   - Errors are deterministic too: ForEachN and Map record every item's
//     error and return the one with the lowest index, not whichever
//     goroutine lost the race. A parallel run therefore reports the same
//     error a sequential left-to-right run would have reported.
//
// Under this contract `Workers: 1` and `Workers: N` produce bit-identical
// results everywhere in the library — the determinism tests in
// internal/core assert it end to end — and the worker count is purely a
// wall-clock knob.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eda-go/moheco/internal/obs"
)

// Pool-level instrumentation. Counters are atomic side-bookkeeping only —
// they never influence scheduling or results, preserving the determinism
// contract above. Busy time is summed across workers in nanoseconds, so
// rate(engine_busy_ns_total)/1e9 divided by wall time is the pool's
// effective parallelism.
var (
	mTasks   = obs.Default().Counter("engine_tasks_total")
	mBatches = obs.Default().Counter("engine_batches_total")
	mBusyNS  = obs.Default().Counter("engine_busy_ns_total")
)

// Resolve maps a Workers option to a concrete worker count for n work
// items: values ≤ 0 mean GOMAXPROCS, and the count never exceeds n (or
// falls below 1).
func Resolve(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Split divides a worker budget between an outer fan-out of width n and
// the work inside each item: it returns the per-item worker count
// (budget/n, floored, at least 1), resolving a non-positive budget to
// GOMAXPROCS. Nested pools sized this way stay near the machine's core
// count instead of multiplying — and a fan-out of width 1 hands the whole
// pool to its single item. Worker counts never change results, so the
// split is purely a scheduling-overhead bound.
func Split(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	inner := workers / n
	if inner < 1 {
		inner = 1
	}
	return inner
}

// ForEachN runs fn(i) for every i in [0, n) on at most workers goroutines
// (Resolve semantics). With one worker it degenerates to a plain
// left-to-right loop that stops at the first error. With several workers
// every item's error is recorded and the lowest-index one is returned, so
// the reported error does not depend on scheduling; once any item has
// failed, workers stop claiming new items (items already in flight finish).
func ForEachN(workers, n int, fn func(i int) error) error {
	return ForEachNCtx(nil, workers, n, fn)
}

// ForEachNCtx is ForEachN under a cancellation context (nil means never
// cancelled). Workers stop claiming new items once the context is done —
// items already in flight finish, so a caller observes cancellation within
// one item's worth of work per worker. When the run is cut short by the
// context and no item failed on its own, the context's error is returned;
// item errors keep ForEachN's deterministic lowest-index precedence.
func ForEachNCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	done := func() bool { return ctx != nil && ctx.Err() != nil }
	workers = Resolve(workers, n)
	mBatches.Inc()
	run := func(i int) error {
		t0 := time.Now()
		err := fn(i)
		mBusyNS.Add(time.Since(t0).Nanoseconds())
		mTasks.Inc()
		return err
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if done() {
				return ctx.Err()
			}
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
	)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || done() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if done() {
		return ctx.Err()
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// collects the results in index order. Error semantics match ForEachN: the
// lowest-index error is returned, alongside the partial results (slots
// whose fn did not complete hold the zero value).
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx[T](nil, workers, n, fn)
}

// MapCtx is Map under a cancellation context (ForEachNCtx semantics).
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachNCtx(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
