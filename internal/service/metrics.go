// Observability wiring for the service: the metric handle set threaded
// through the job path and the shard scheduler, and the per-job trace
// summary derived for terminal statuses.
//
// Naming scheme (see DESIGN.md "Observability"): `service_*` covers the job
// lifecycle on one node, `fleet_*` the shard scheduler and fleet liveness;
// counters end in `_total`, histograms of durations in `_seconds`. Handles
// are resolved once at server construction — the hot paths do atomic adds
// only, and a nil registry yields nil handles whose methods are no-ops, so
// disabled observability costs nothing and (by construction) instrumentation
// never touches the floating-point sequence of a job.
package service

import (
	"sort"

	"github.com/eda-go/moheco/internal/obs"
)

// serverMetrics is the resolved handle set for one server (and, on a
// coordinator, its shard scheduler — promotion reuses the same set).
type serverMetrics struct {
	// Job lifecycle.
	submittedYield    *obs.Counter // service_jobs_submitted_total{kind="yield"}
	submittedOptimize *obs.Counter // service_jobs_submitted_total{kind="optimize"}
	jobsDone          *obs.Counter // service_jobs_total{state=...}
	jobsFailed        *obs.Counter
	jobsCancelled     *obs.Counter
	cacheHits         *obs.Counter   // completed-result reuse
	cacheCoalesced    *obs.Counter   // joined an in-flight identical job
	cacheMisses       *obs.Counter   // fresh job enqueued
	queueSeconds      *obs.Histogram // submit → runner pop
	runSeconds        *obs.Histogram // runner pop → terminal
	sseSubscribers    *obs.Gauge     // live event streams

	// Fleet / shard scheduler.
	shardsLeased       *obs.Counter // fleet_shards_leased_total
	shardsCompleted    *obs.Counter // fleet_shards_completed_total{result="ok"|...}
	shardsFailed       *obs.Counter
	shardsStale        *obs.Counter
	shardsRedispatched *obs.Counter
	warmShardHits      *obs.Counter
	leaseWaitSeconds   *obs.Histogram // shard enqueue → first lease handout
	heartbeats         *obs.Counter   // received (coordinator side)
	heartbeatMisses    *obs.Counter   // missed (worker side)
	replFailures       *obs.Counter
	elections          *obs.Counter
	promotions         *obs.Counter
}

// newServerMetrics resolves every handle once. A nil registry produces nil
// handles throughout — every increment site stays a no-op.
func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		submittedYield:    reg.Counter("service_jobs_submitted_total", "kind", "yield"),
		submittedOptimize: reg.Counter("service_jobs_submitted_total", "kind", "optimize"),
		jobsDone:          reg.Counter("service_jobs_total", "state", "done"),
		jobsFailed:        reg.Counter("service_jobs_total", "state", "failed"),
		jobsCancelled:     reg.Counter("service_jobs_total", "state", "cancelled"),
		cacheHits:         reg.Counter("service_cache_hits_total"),
		cacheCoalesced:    reg.Counter("service_cache_coalesced_total"),
		cacheMisses:       reg.Counter("service_cache_misses_total"),
		queueSeconds:      reg.Histogram("service_job_queue_seconds", nil),
		runSeconds:        reg.Histogram("service_job_run_seconds", nil),
		sseSubscribers:    reg.Gauge("service_sse_subscribers"),

		shardsLeased:       reg.Counter("fleet_shards_leased_total"),
		shardsCompleted:    reg.Counter("fleet_shards_completed_total", "result", "ok"),
		shardsFailed:       reg.Counter("fleet_shards_completed_total", "result", "failed"),
		shardsStale:        reg.Counter("fleet_shards_completed_total", "result", "stale"),
		shardsRedispatched: reg.Counter("fleet_shards_redispatched_total"),
		warmShardHits:      reg.Counter("fleet_warm_shard_hits_total"),
		leaseWaitSeconds:   reg.Histogram("fleet_shard_lease_wait_seconds", nil),
		heartbeats:         reg.Counter("fleet_heartbeats_total"),
		heartbeatMisses:    reg.Counter("fleet_heartbeat_misses_total"),
		replFailures:       reg.Counter("fleet_replication_failures_total"),
		elections:          reg.Counter("fleet_elections_total"),
		promotions:         reg.Counter("fleet_promotions_total"),
	}
}

// jobState routes a terminal state to its counter.
func (m *serverMetrics) jobState(st State) {
	if m == nil {
		return
	}
	switch st {
	case StateDone:
		m.jobsDone.Inc()
	case StateFailed:
		m.jobsFailed.Inc()
	case StateCancelled:
		m.jobsCancelled.Inc()
	}
}

// TraceSummary condenses a job's trace into the final Status: where the
// job's wall time went (queue vs run), how many shards executed on which
// nodes, and the simulations attributed across spans.
type TraceSummary struct {
	Spans       int      `json:"spans"`
	QueueMS     float64  `json:"queue_ms,omitempty"`
	RunMS       float64  `json:"run_ms,omitempty"`
	Shards      int      `json:"shards,omitempty"`
	CachedShard int      `json:"cached_shards,omitempty"`
	Nodes       []string `json:"nodes,omitempty"`
	Sims        int64    `json:"sims,omitempty"`
	Generations int      `json:"generations,omitempty"`
}

// summarizeTrace folds a trace view into its summary (nil for an empty
// view, so untraced jobs serialize without the block).
func summarizeTrace(v obs.TraceView) *TraceSummary {
	if len(v.Spans) == 0 {
		return nil
	}
	sum := &TraceSummary{Spans: len(v.Spans) + v.Dropped}
	nodes := map[string]bool{}
	for _, sp := range v.Spans {
		sum.Sims += sp.Sims
		switch sp.Name {
		case "queued":
			sum.QueueMS += sp.DurationMS
		case "run":
			sum.RunMS += sp.DurationMS
		case "shard":
			sum.Shards++
			if sp.Attrs["cached"] == "true" {
				sum.CachedShard++
			}
			if sp.Node != "" {
				nodes[sp.Node] = true
			}
		case "generation":
			sum.Generations++
		}
	}
	for n := range nodes {
		sum.Nodes = append(sum.Nodes, n)
	}
	sort.Strings(sum.Nodes)
	return sum
}
