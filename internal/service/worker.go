// Shard execution: the node side of the distributed yield fleet.
//
// One loop — runShardWorker — serves both deployment shapes. A coordinator
// that keeps self-work enabled runs it in-process against its own
// *Coordinator (so a one-process fleet still completes jobs), and a worker
// node runs it against a *Client pointed at the coordinator; the loop only
// sees the shardSource pull protocol. The fleet-membership life of a
// worker node — heartbeats, dead-coordinator detection, election — lives
// in fleet.go; this file is only the work loop.
package service

import (
	"context"
	"math/rand"
	"time"

	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// Lease-loop backoff when the coordinator is unreachable: capped
// exponential with full jitter on the upper half, so a fleet of workers
// orphaned by one coordinator crash does not stampede its successor in
// lockstep.
const (
	leaseBackoffBase = 200 * time.Millisecond
	leaseBackoffCap  = 5 * time.Second
)

// runShardWorker pulls shards from src and executes them until ctx ends or
// drain closes. Drain stops only the *leasing*: the shard in flight still
// executes and reports on ctx, which is the graceful half of a SIGTERM —
// work this node already holds a lease on is finished and counted, not
// abandoned to a lease expiry. counter, when non-nil, receives the node's
// own simulator invocations (a remote worker's /healthz feed); the
// coordinator's fleet-wide count is fed separately from the reported
// ShardResult.Sims, so the in-process self-runner passes nil to avoid
// double counting.
func runShardWorker(ctx context.Context, src shardSource, node string, workers int, counter *yieldsim.Counter, logger *obs.Logger, drain <-chan struct{}) {
	leaseCtx := ctx
	if drain != nil {
		var cancel context.CancelFunc
		leaseCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		go func() {
			select {
			case <-drain:
				cancel()
			case <-leaseCtx.Done():
			}
		}()
	}
	backoff := time.Duration(0)
	for leaseCtx.Err() == nil {
		shards, _, err := src.LeaseShards(leaseCtx, node, 1)
		if err != nil {
			if leaseCtx.Err() != nil {
				return
			}
			// Lease failures are transport trouble (coordinator restarting,
			// network blip): back off and keep pulling — the lease protocol
			// makes a vanished worker harmless, so a flaky one is too.
			if backoff == 0 {
				backoff = leaseBackoffBase
			} else if backoff *= 2; backoff > leaseBackoffCap {
				backoff = leaseBackoffCap
			}
			sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			logger.Debugf("worker %s: lease failed (%v), retrying in %s", node, err, sleep)
			select {
			case <-leaseCtx.Done():
				return
			case <-time.After(sleep):
			}
			continue
		}
		backoff = 0
		for _, sh := range shards {
			res := executeShard(ctx, sh, node, workers, counter)
			if ctx.Err() != nil && res.Error != "" {
				// Shutdown mid-shard: report nothing and let the lease
				// expire — a cancellation error must not burn the shard's
				// failure budget.
				return
			}
			if err := src.CompleteShard(ctx, sh.ID, res); err != nil {
				logger.Warnf("worker %s: completing shard %s failed: %v", node, sh.ID, err)
			}
		}
	}
}

// executeShard evaluates one shard's chunk range and packages the result.
// Errors travel in the result rather than aborting the loop: the
// coordinator owns the retry policy.
func executeShard(ctx context.Context, sh Shard, node string, workers int, counter *yieldsim.Counter) ShardResult {
	res := ShardResult{Node: node}
	// The progress feed's cumulative count is the shard's simulations,
	// reported in the result so the coordinator can count work from nodes
	// it does not share memory with; counter is charged as chunks finish.
	counts, err := runChunks(ctx, sh.Spec, sh.First, sh.Last, workers, counter,
		func(done, _ int64) { res.Sims = done })
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Pass = counts
	return res
}
