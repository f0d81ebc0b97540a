// Shard scheduling: the coordinator side of the distributed yield fleet.
//
// A yield job of n samples is the chunk-indexed sample stream
// yieldsim.Chunks(n); the coordinator groups consecutive chunks into
// shards, serves them to pull-based workers (remote nodes over
// POST /v1/shards/lease, plus an in-process runner so the coordinator is
// itself a node), and merges the per-chunk passing-sample counts in
// chunk-index order. Counts are integers and every chunk's sample stream is
// a pure function of (scenario, x, seed, sampler, tran, chunk index, chunk
// length), so the merged estimate is bit-for-bit the single-node result no
// matter how the chunk space was partitioned, which nodes evaluated which
// shard, or how often a shard was re-dispatched.
//
// Dispatch is lease-based: a shard handed to a node must be acknowledged
// within the lease or it returns to the head of the queue for a surviving
// node — a worker killed mid-job delays the merge, never changes it (a late
// duplicate completion is ignored as stale; it would have carried the
// identical counts). Completed shards enter a canonical-key LRU
// (warm-shard cache), keyed so that full chunks are shared across
// estimates with different total sample counts.
package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// Shard is the distributed unit of work: a contiguous chunk range
// [First, Last) of one resolved yield spec.
type Shard struct {
	ID    string    `json:"id"`
	Spec  YieldSpec `json:"spec"`
	First int       `json:"first"`
	Last  int       `json:"last"`
}

// Samples returns the number of Monte-Carlo samples the shard covers.
func (sh Shard) Samples() int {
	lo := sh.First * yieldsim.ChunkSize
	hi := sh.Last * yieldsim.ChunkSize
	if hi > sh.Spec.N {
		hi = sh.Spec.N
	}
	return hi - lo
}

// ShardLeaseRequest asks the coordinator for up to Max shards on behalf of
// Node.
type ShardLeaseRequest struct {
	Node string `json:"node"`
	Max  int    `json:"max,omitempty"`
}

// ShardLeaseResponse carries the leased shards; an empty list means no
// pending work survived the server-side long-poll.
type ShardLeaseResponse struct {
	Shards  []Shard `json:"shards"`
	LeaseMS int64   `json:"lease_ms"`
}

// ShardResult reports one executed shard: the per-chunk passing-sample
// counts in chunk-index order ([First, Last) relative), the simulator
// invocations spent, and — for a structural failure — the error that kept
// the node from producing counts.
type ShardResult struct {
	Node  string `json:"node"`
	Pass  []int  `json:"pass,omitempty"`
	Sims  int64  `json:"sims"`
	Error string `json:"error,omitempty"`
}

// shardSource is the pull protocol between the scheduler and a shard
// runner — the transport-agnostic seam. *Coordinator implements it for the
// in-process runner; *Client implements it over HTTP for remote workers.
type shardSource interface {
	// LeaseShards blocks (bounded by a server-side long-poll) until up to
	// max shards are available and leases them to node.
	LeaseShards(ctx context.Context, node string, max int) ([]Shard, time.Duration, error)
	// CompleteShard reports a shard's outcome. Completing an unknown or
	// already-completed shard is not an error — re-dispatch makes
	// duplicates normal, and every duplicate carries identical counts.
	CompleteShard(ctx context.Context, id string, res ShardResult) error
}

// shardState is one dispatched-or-pending shard on the coordinator.
type shardState struct {
	Shard
	attempts int       // lease handouts so far
	failures int       // structural failures reported
	leasedTo string    // node holding the live lease ("" = pending)
	deadline time.Time // lease expiry
	enqueued time.Time // when the shard entered the queue (lease-wait metric)
	pass     []int     // set on completion
	node     string    // node that produced the accepted result
	sims     int64     // simulator invocations the accepted result cost
	err      error     // set when the shard is abandoned as failed
	done     chan struct{}
}

// leasePollWait bounds the server-side block of an empty lease request;
// workers immediately re-poll, so it is a latency/traffic trade, not a
// correctness knob. It also bounds how long an expired lease can sit
// unnoticed while every worker is parked in a long poll.
const leasePollWait = 2 * time.Second

// maxShardFailures is how many structural failures a shard survives
// (re-queued each time) before its job is failed. Re-dispatch after a
// *lease expiry* is unbounded — a dead node must never fail a job — but a
// shard that keeps *erroring* on live nodes is a deterministic failure and
// retrying it forever would hang the job.
const maxShardFailures = 3

// peerInfo is one fleet node as the coordinator tracks it: when it was
// last seen (leasing, completing or heartbeating), — for nodes that
// announce one — the URL its API answers on (which is what makes the node
// electable and a replication target), plus the observability piggyback:
// the node's last metrics snapshot and a two-point cumulative-sims history
// for the throughput estimate in FleetStatus.
type peerInfo struct {
	url  string
	seen time.Time

	metrics *obs.Snapshot // last heartbeat's piggybacked snapshot
	// Cumulative sims at the last two heartbeats that moved the number;
	// sims/sec over that interval is the node's reported throughput.
	sims       int64
	simsAt     time.Time
	prevSims   int64
	prevSimsAt time.Time
}

// rate returns the peer's simulations per second over its last heartbeat
// interval (0 until two samples exist).
func (p peerInfo) rate() float64 {
	dt := p.simsAt.Sub(p.prevSimsAt).Seconds()
	if dt <= 0 || p.sims < p.prevSims {
		return 0
	}
	return float64(p.sims-p.prevSims) / dt
}

// Coordinator is the fleet scheduler and the Backend yield jobs run on
// when the server is started in coordinator mode. It splits each yield
// spec into shards, serves them to pulling nodes, re-dispatches expired
// leases, merges per-chunk counts, and keeps completed shards warm in a
// canonical-key LRU.
type Coordinator struct {
	node        string // the coordinator's own node name (excluded from peer counts)
	counter     *yieldsim.Counter
	logger      *obs.Logger
	sm          *serverMetrics
	lease       time.Duration
	peerWindow  time.Duration // how long since last contact a peer counts as live
	shardChunks int
	cache       *lruCache[[]int]
	hooks       Hooks
	// onShardDone, when non-nil, receives every successfully completed
	// shard's (canonical key, pass counts) — the replication tap.
	onShardDone func(key string, pass []int)

	mu      sync.Mutex
	seq     int64
	pending []*shardState          // FIFO; re-dispatched shards go to the front
	byID    map[string]*shardState // pending + leased
	peers   map[string]peerInfo    // node → last-seen + advertised URL
	wake    chan struct{}          // closed and replaced when pending gains work
}

func newCoordinator(cfg FleetConfig, hooks Hooks, node string, counter *yieldsim.Counter, logger *obs.Logger, sm *serverMetrics) *Coordinator {
	lease := cfg.Lease
	if lease <= 0 {
		lease = 15 * time.Second
	}
	hb := cfg.Heartbeat
	if hb <= 0 {
		hb = defaultHeartbeat
	}
	samples := cfg.ShardSamples
	if samples <= 0 {
		samples = 8192
	}
	chunks := (samples + yieldsim.ChunkSize - 1) / yieldsim.ChunkSize
	return &Coordinator{
		node:        node,
		counter:     counter,
		logger:      logger,
		sm:          sm,
		lease:       lease,
		peerWindow:  4 * hb,
		shardChunks: chunks,
		cache:       newLRUCache[[]int](cfg.ShardCacheSize),
		hooks:       hooks,
		byID:        make(map[string]*shardState),
		peers:       make(map[string]peerInfo),
		wake:        make(chan struct{}),
	}
}

// touchPeerLocked refreshes a node's last-seen time, preserving any URL a
// heartbeat announced.
func (c *Coordinator) touchPeerLocked(node string) {
	p := c.peers[node]
	p.seen = time.Now()
	c.peers[node] = p
}

// Heartbeat records one worker's liveness announcement and answers with
// the live electorate: every URL-bearing peer (the announcer included)
// seen within the liveness window, sorted by node name — the exact table a
// hand-off election runs over, so every worker always holds a fresh copy.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.sm.heartbeats.Inc()
	c.mu.Lock()
	switch {
	case req.Leaving:
		delete(c.peers, req.Node)
		c.logger.Infof("peer %s left the fleet", req.Node)
	case req.Node != "":
		p := c.peers[req.Node]
		p.seen = time.Now()
		if req.URL != "" {
			p.url = req.URL
		}
		if req.Metrics != nil {
			p.metrics = req.Metrics
		}
		if req.Sims != p.sims || p.simsAt.IsZero() {
			p.prevSims, p.prevSimsAt = p.sims, p.simsAt
			p.sims, p.simsAt = req.Sims, time.Now()
		}
		c.peers[req.Node] = p
	}
	resp := HeartbeatResponse{Node: c.node, Peers: c.livePeersLocked()}
	c.mu.Unlock()
	return resp
}

// mergedSnapshot folds the stored metrics snapshots of every live peer into
// local — the fleet-wide view behind GET /metrics?fleet=1. Counters and
// histogram buckets sum across nodes; gauge funcs never enter snapshots, so
// scrape-time node-local gauges are not double-counted.
func (c *Coordinator) mergedSnapshot(local obs.Snapshot) obs.Snapshot {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for node, p := range c.peers {
		if node == c.node || p.metrics == nil || now.Sub(p.seen) > c.peerWindow {
			continue
		}
		local.Merge(*p.metrics)
	}
	return local
}

// livePeers returns the URL-bearing peers seen within the liveness window,
// sorted by node name — the electorate and the replication target set.
func (c *Coordinator) livePeers() []FleetPeer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.livePeersLocked()
}

func (c *Coordinator) livePeersLocked() []FleetPeer {
	now := time.Now()
	peers := make([]FleetPeer, 0, len(c.peers))
	for node, p := range c.peers {
		if node == c.node || p.url == "" || now.Sub(p.seen) > c.peerWindow {
			continue
		}
		peers = append(peers, FleetPeer{Node: node, URL: p.url})
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Node < peers[j].Node })
	return peers
}

// Name implements Backend.
func (c *Coordinator) Name() string { return "coordinator" }

// Yield implements Backend: plan the spec's shards, run each through the
// warm-shard cache (a cached shard costs nothing; an in-flight identical
// shard is joined, not duplicated; the rest are enqueued for pulling
// nodes), and merge the per-chunk counts in chunk-index order.
func (c *Coordinator) Yield(ctx context.Context, spec YieldSpec, progress func(done, pass int64)) (int64, error) {
	// Validate here, not just on the executing node: a spec that cannot
	// instantiate would otherwise burn its failure budget on every node.
	if _, _, err := spec.instantiate(); err != nil {
		return 0, err
	}
	nchunks := yieldsim.NumChunks(spec.N)
	if nchunks == 0 {
		return 0, fmt.Errorf("yieldsim: reference sample count %d", spec.N)
	}
	type plan struct{ first, last int }
	plans := make([]plan, 0, (nchunks+c.shardChunks-1)/c.shardChunks)
	for first := 0; first < nchunks; first += c.shardChunks {
		last := first + c.shardChunks
		if last > nchunks {
			last = nchunks
		}
		plans = append(plans, plan{first, last})
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		doneCum int64
		passCum int64
	)
	counts := make([][]int, len(plans))
	errs := make([]error, len(plans))
	tr := obs.TraceFrom(ctx) // nil outside a traced job; every span call no-ops
	for i, pl := range plans {
		wg.Add(1)
		go func(i int, pl plan) {
			defer wg.Done()
			shardSamples := int64(min(pl.last*yieldsim.ChunkSize, spec.N) - pl.first*yieldsim.ChunkSize)
			span := tr.Begin("shard", func(sp *obs.Span) {
				sp.Samples = shardSamples
				sp.Attrs = map[string]string{"chunks": fmt.Sprintf("[%d,%d)", pl.first, pl.last)}
			})
			var execNode string
			var execSims int64
			v, cached, err := c.cache.Do(ctx, shardKey(spec, pl.first, pl.last), func() ([]int, error) {
				pass, node, sims, err := c.runShard(ctx, spec, pl.first, pl.last)
				execNode, execSims = node, sims
				return pass, err
			})
			if cached {
				c.sm.warmShardHits.Inc()
			}
			tr.End(span, func(sp *obs.Span) {
				sp.Node = execNode
				sp.Sims = execSims
				if cached {
					sp.Attrs["cached"] = "true"
				}
			})
			if err != nil {
				errs[i] = err
				return
			}
			counts[i] = v
			if progress != nil {
				var pass int64
				for _, p := range v {
					pass += int64(p)
				}
				mu.Lock()
				doneCum += shardSamples
				passCum += pass
				progress(doneCum, passCum)
				mu.Unlock()
			}
		}(i, pl)
	}
	wg.Wait()
	// Deterministic error precedence, mirroring engine.ForEachN: the
	// lowest-index shard's error is the job's error.
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var pass int64
	for _, shard := range counts {
		for _, p := range shard {
			pass += int64(p)
		}
	}
	return pass, nil
}

// runShard enqueues one shard and blocks until a node completes it or ctx
// is cancelled, reporting which node produced the result and what it cost.
// It is always called as a cache.Do leader, so at most one live shard
// exists per shard key.
func (c *Coordinator) runShard(ctx context.Context, spec YieldSpec, first, last int) ([]int, string, int64, error) {
	c.mu.Lock()
	c.seq++
	st := &shardState{
		Shard:    Shard{ID: fmt.Sprintf("s%08d", c.seq), Spec: spec, First: first, Last: last},
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	c.pending = append(c.pending, st)
	c.byID[st.ID] = st
	c.wakeLocked()
	c.mu.Unlock()
	c.logger.Debugf("shard %s chunks [%d,%d) of %s queued", st.ID, first, last, spec.Scenario)

	select {
	case <-st.done:
		if st.err != nil {
			return nil, "", 0, st.err
		}
		return st.pass, st.node, st.sims, nil
	case <-ctx.Done():
		c.withdraw(st)
		return nil, "", 0, ctx.Err()
	}
}

// withdraw removes a shard whose job went away. A copy a worker is still
// executing completes into the void (CompleteShard reports stale).
func (c *Coordinator) withdraw(st *shardState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byID[st.ID]; !ok {
		return
	}
	delete(c.byID, st.ID)
	for i, p := range c.pending {
		if p == st {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
}

// LeaseShards implements shardSource: hand out up to max pending shards,
// re-dispatching expired leases first, long-polling up to leasePollWait
// when the queue is empty.
func (c *Coordinator) LeaseShards(ctx context.Context, node string, max int) ([]Shard, time.Duration, error) {
	if max <= 0 {
		max = 1
	}
	timeout := time.NewTimer(leasePollWait)
	defer timeout.Stop()
	for {
		c.mu.Lock()
		c.touchPeerLocked(node)
		c.redispatchExpiredLocked()
		out := make([]Shard, 0, max)
		for len(out) < max && len(c.pending) > 0 {
			st := c.pending[0]
			c.pending = c.pending[1:]
			if st.attempts == 0 && !st.enqueued.IsZero() {
				c.sm.leaseWaitSeconds.Observe(time.Since(st.enqueued).Seconds())
			}
			st.leasedTo = node
			st.deadline = time.Now().Add(c.lease)
			st.attempts++
			c.sm.shardsLeased.Inc()
			out = append(out, st.Shard)
		}
		wake := c.wake
		c.mu.Unlock()
		if len(out) > 0 {
			c.logger.Debugf("leased %d shard(s) to %s", len(out), node)
			if c.hooks.ShardLeased != nil {
				for _, sh := range out {
					c.hooks.ShardLeased(node, sh)
				}
			}
			return out, c.lease, nil
		}
		select {
		case <-ctx.Done():
			return nil, c.lease, ctx.Err()
		case <-timeout.C:
			return nil, c.lease, nil
		case <-wake:
		}
	}
}

// CompleteShard implements shardSource: fold a node's result in, requeue on
// structural failure (up to maxShardFailures), ignore stale duplicates.
func (c *Coordinator) CompleteShard(_ context.Context, id string, res ShardResult) error {
	// Work was burned whether or not the shard is still live; the fleet
	// counter reflects it either way.
	if res.Sims > 0 && c.counter != nil {
		c.counter.Add(res.Sims)
	}
	c.mu.Lock()
	if res.Node != "" {
		c.touchPeerLocked(res.Node)
	}
	st, ok := c.byID[id]
	if !ok {
		c.mu.Unlock()
		c.sm.shardsStale.Inc()
		c.logger.Debugf("shard %s completion from %s is stale", id, res.Node)
		if c.hooks.ShardCompleted != nil {
			c.hooks.ShardCompleted(id, true)
		}
		return nil
	}
	if res.Error != "" || len(res.Pass) != st.Last-st.First {
		reason := res.Error
		if reason == "" {
			reason = fmt.Sprintf("malformed result: %d counts for %d chunks", len(res.Pass), st.Last-st.First)
		}
		st.failures++
		c.sm.shardsFailed.Inc()
		if st.failures >= maxShardFailures {
			delete(c.byID, id)
			st.err = fmt.Errorf("service: shard %s (chunks [%d,%d)) failed %d times, last on %s: %s",
				id, st.First, st.Last, st.failures, res.Node, reason)
			c.mu.Unlock()
			close(st.done)
			return nil
		}
		// Requeue at the front: the failed shard is the oldest work.
		st.leasedTo = ""
		st.deadline = time.Time{}
		c.pending = append([]*shardState{st}, c.pending...)
		c.wakeLocked()
		c.mu.Unlock()
		c.logger.Warnf("shard %s failed on %s (%s), requeued", id, res.Node, reason)
		return nil
	}
	delete(c.byID, id)
	st.pass = res.Pass
	st.node = res.Node
	st.sims = res.Sims
	c.mu.Unlock()
	c.sm.shardsCompleted.Inc()
	close(st.done)
	c.logger.Debugf("shard %s completed by %s", id, res.Node)
	if c.onShardDone != nil {
		c.onShardDone(shardKey(st.Spec, st.First, st.Last), res.Pass)
	}
	if c.hooks.ShardCompleted != nil {
		c.hooks.ShardCompleted(id, false)
	}
	return nil
}

// redispatchExpiredLocked returns expired leases to the head of the queue.
func (c *Coordinator) redispatchExpiredLocked() {
	now := time.Now()
	for _, st := range c.byID {
		if st.leasedTo != "" && now.After(st.deadline) {
			c.logger.Warnf("shard %s lease on %s expired, re-dispatching", st.ID, st.leasedTo)
			c.sm.shardsRedispatched.Inc()
			st.leasedTo = ""
			st.deadline = time.Time{}
			c.pending = append([]*shardState{st}, c.pending...)
		}
	}
}

// wakeLocked signals long-polling lease calls that pending work appeared.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// FleetStatus is the /healthz fleet block (and the GET /v1/fleet/status
// payload): the node's role and name, which node currently coordinates, how
// many distinct peers are active, on a coordinator the shard scheduler's
// queue and cache state plus per-peer throughput, and the node's
// replicated-state counts (what a hand-off to this node could resume).
type FleetStatus struct {
	Role            string     `json:"role"`
	Node            string     `json:"node"`
	CoordinatorNode string     `json:"coordinator_node,omitempty"`
	Peers           int        `json:"peers"`
	PendingShards   int        `json:"pending_shards,omitempty"`
	LeasedShards    int        `json:"leased_shards,omitempty"`
	CachedShards    int        `json:"cached_shards,omitempty"`
	ReplJobs        int        `json:"repl_jobs,omitempty"`
	ReplResults     int        `json:"repl_results,omitempty"`
	ReplShards      int        `json:"repl_shards,omitempty"`
	PeerStats       []PeerStat `json:"peer_stats,omitempty"`
}

// PeerStat is a coordinator's view of one fleet peer: cumulative
// simulations it has announced, its simulations-per-second over the last
// heartbeat interval, and whether it currently looks like a straggler
// (under half the fleet's median positive rate — the node to look at when
// a job's tail is slow).
type PeerStat struct {
	Node       string  `json:"node"`
	URL        string  `json:"url,omitempty"`
	Sims       int64   `json:"sims"`
	SimsPerSec float64 `json:"sims_per_sec"`
	LastSeenMS float64 `json:"last_seen_ms"`
	Straggler  bool    `json:"straggler,omitempty"`
}

// peerStatsLocked derives the PeerStat table from the peer map. Straggler
// detection needs at least two rate-bearing peers: with one there is no
// fleet to straggle behind.
func (c *Coordinator) peerStatsLocked(window time.Duration) []PeerStat {
	now := time.Now()
	var stats []PeerStat
	var rates []float64
	for node, p := range c.peers {
		if node == c.node || now.Sub(p.seen) > window {
			continue
		}
		r := p.rate()
		stats = append(stats, PeerStat{
			Node:       node,
			URL:        p.url,
			Sims:       p.sims,
			SimsPerSec: r,
			LastSeenMS: sinceMS(p.seen),
		})
		if r > 0 {
			rates = append(rates, r)
		}
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Node < stats[j].Node })
	if len(rates) >= 2 {
		sort.Float64s(rates)
		median := rates[len(rates)/2]
		for i := range stats {
			if stats[i].SimsPerSec > 0 && stats[i].SimsPerSec < median/2 {
				stats[i].Straggler = true
			}
		}
	}
	return stats
}

// Fleet reports the server's fleet status. Peers counts, for a
// coordinator, the distinct worker nodes (other than itself) seen leasing,
// completing or heartbeating within three lease windows; for a worker, its
// coordinator. Role and coordinator can change at runtime: a worker that
// wins a hand-off election reports "coordinator" from then on — election
// probes read exactly this field.
func (s *Server) Fleet() FleetStatus {
	s.mu.Lock()
	role := s.role
	c := s.coord
	s.mu.Unlock()
	fs := FleetStatus{Role: role, Node: s.node}
	if c == nil && s.cfg.Fleet.Join != "" {
		fs.Peers = 1
		fs.CoordinatorNode = s.fleetSnapshot().coordNode
	}
	if c != nil {
		fs.CoordinatorNode = s.node
		window := 3 * c.lease
		now := time.Now()
		c.mu.Lock()
		for node, p := range c.peers {
			if node != c.node && now.Sub(p.seen) <= window {
				fs.Peers++
			}
		}
		fs.PendingShards = len(c.pending)
		fs.LeasedShards = len(c.byID) - len(c.pending)
		fs.PeerStats = c.peerStatsLocked(window)
		c.mu.Unlock()
		fs.CachedShards = c.cache.Len()
	}
	if s.replica != nil {
		fs.ReplJobs, fs.ReplResults, fs.ReplShards = s.replica.counts()
	}
	return fs
}

// BackendName reports which executor yield jobs run on ("local",
// "coordinator", or an injected backend's name).
func (s *Server) BackendName() string { return s.getBackend().Name() }
