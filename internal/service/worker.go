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
	"time"

	"github.com/eda-go/moheco/internal/yieldsim"
)

// leaseBackoffCap caps the lease loop's backoff (see backoff) while the
// coordinator is unreachable.
const leaseBackoffCap = 5 * time.Second

// runShardWorker pulls shards from src and executes them until ctx ends or
// the server drains. Drain stops only the *leasing*: the shard in flight
// still executes and reports on ctx, which is the graceful half of a
// SIGTERM — work this node already holds a lease on is finished and
// counted, not abandoned to a lease expiry. counter, when non-nil, receives
// the node's own simulator invocations (a remote worker's /healthz feed);
// the coordinator's fleet-wide count is fed separately from the reported
// ShardResult.Sims, so the in-process self-runner passes nil to avoid
// double counting.
func (s *Server) runShardWorker(ctx context.Context, src shardSource, counter *yieldsim.Counter) {
	logger := s.log.With("worker")
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-s.drainCh:
			cancel()
		case <-leaseCtx.Done():
		}
	}()
	failures := 0
	for leaseCtx.Err() == nil {
		shards, _, err := src.LeaseShards(leaseCtx, s.node, 1)
		if err != nil {
			if leaseCtx.Err() != nil {
				return
			}
			// Lease failures are transport trouble (coordinator restarting,
			// network blip): back off and keep pulling — the lease protocol
			// makes a vanished worker harmless, so a flaky one is too.
			logger.Debugf("worker %s: lease failed (%v), backing off (failure %d)", s.node, err, failures+1)
			if !backoff(leaseCtx, s.clk, failures, leaseBackoffCap, 0) {
				return
			}
			failures++
			continue
		}
		failures = 0
		for _, sh := range shards {
			res := executeShard(ctx, sh, s.node, s.cfg.Workers, counter)
			if ctx.Err() != nil && res.Error != "" {
				// Shutdown mid-shard: report nothing and let the lease
				// expire — a cancellation error must not burn the shard's
				// failure budget.
				return
			}
			if err := src.CompleteShard(ctx, sh.ID, res); err != nil {
				logger.Warnf("worker %s: completing shard %s failed: %v", s.node, sh.ID, err)
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
