// Fleet liveness and hand-off: the machinery that lets the fleet survive
// its coordinator.
//
// Three cooperating pieces:
//
//   - A heartbeat protocol (POST /v1/fleet/heartbeat): every worker
//     periodically announces itself — node name plus the URL peers can
//     reach its API at — and receives the coordinator's live-peer table in
//     return. The table is what makes leaderless election possible: every
//     worker knows every other worker's identity without any peer-to-peer
//     gossip.
//
//   - State replication (POST /v1/fleet/replicate): the coordinator pushes
//     accepted yield-job specs on submit, per-shard pass counts as shards
//     complete, and full results on job completion to every live peer.
//     Coordinator death therefore loses scheduling state — which is
//     rebuilt — but never finished work.
//
//   - Deterministic hand-off: a worker that misses enough heartbeats
//     declares the coordinator dead and runs a rank-staggered election
//     over the (sorted) peer table. The live peer with the lowest node ID
//     promotes itself — it becomes a Coordinator, adopts the warm-shard
//     store replication filled, and resubmits every replicated
//     unfinished job spec to itself. Higher-ranked peers wait their
//     stagger while probing for the winner and rejoin it; if the expected
//     winner died too, the next rank's stagger expires and it promotes
//     instead. Chunk merges are order-independent integer folds, so a
//     handed-off job produces float64 bits identical to an uninterrupted
//     single-node run.
package service

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/eda-go/moheco/internal/obs"
)

// FleetPeer identifies one node of the fleet on the wire: its name and the
// base URL its API answers on.
type FleetPeer struct {
	Node string `json:"node"`
	URL  string `json:"url,omitempty"`
}

// HeartbeatRequest is a worker's periodic liveness announcement. URL is
// the worker's advertised API base (empty when the node has none to
// offer — it then cannot be elected or receive replicas). Leaving marks a
// graceful drain: the coordinator drops the node from the peer table
// immediately instead of waiting out the liveness window.
type HeartbeatRequest struct {
	Node    string `json:"node"`
	URL     string `json:"url,omitempty"`
	Leaving bool   `json:"leaving,omitempty"`
	// Sims is the node's cumulative simulator-invocation count; successive
	// values give the coordinator a per-peer sims/sec estimate.
	Sims int64 `json:"sims,omitempty"`
	// Metrics piggybacks the node's metrics snapshot so the coordinator can
	// serve a fleet-wide merged scrape (GET /metrics?fleet=1) without a
	// second collection protocol.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// HeartbeatResponse carries the coordinator's identity and its live-peer
// table (URL-bearing peers seen within the liveness window, sorted by node
// name) — the electorate for a future hand-off.
type HeartbeatResponse struct {
	Node  string      `json:"node"`
	Peers []FleetPeer `json:"peers"`
}

// ReplicatedJob is an accepted-but-unfinished yield job: the canonical key
// and the fully resolved spec, everything a promoted coordinator needs to
// resubmit it.
type ReplicatedJob struct {
	Key  string    `json:"key"`
	Spec YieldSpec `json:"spec"`
}

// ReplicatedResult is a finished yield job's payload under its canonical
// key; a node holding it serves the request with zero re-simulation.
type ReplicatedResult struct {
	Key    string       `json:"key"`
	Result *YieldResult `json:"result"`
}

// ReplicatedShard is one completed shard's per-chunk pass counts under its
// warm-shard cache key. A peer stores it in its warm-shard store, which a
// promoted coordinator serves from, so a resumed job only re-simulates work
// that never finished.
type ReplicatedShard struct {
	Key  string `json:"key"`
	Pass []int  `json:"pass"`
}

// ReplicateRequest is the coordinator→peer replication push.
type ReplicateRequest struct {
	From    string             `json:"from"`
	Jobs    []ReplicatedJob    `json:"jobs,omitempty"`
	Results []ReplicatedResult `json:"results,omitempty"`
	Shards  []ReplicatedShard  `json:"shards,omitempty"`
}

// replica is a node's copy of the job state pushed to it: unfinished job
// specs (resubmitted on promotion) and finished results (served with zero
// sims). Results are a bounded LRU; the unfinished-job set is naturally
// bounded by the fleet's queue. Replicated shard counts go to the node's
// warm-shard store (Server.shards), not here.
type replica struct {
	mu      sync.Mutex
	jobs    map[string]YieldSpec
	results *lruCache[*YieldResult]
}

func newReplica(resultSize int) *replica {
	return &replica{
		jobs:    make(map[string]YieldSpec),
		results: newLRUCache[*YieldResult](resultSize),
	}
}

// apply folds one replication push's jobs and results in. A result closes
// out its job spec — the pair (job gone, result present) is exactly
// "nothing to resume".
func (r *replica) apply(req ReplicateRequest) {
	r.mu.Lock()
	for _, j := range req.Jobs {
		r.jobs[j.Key] = j.Spec
	}
	for _, res := range req.Results {
		delete(r.jobs, res.Key)
	}
	r.mu.Unlock()
	for _, res := range req.Results {
		if res.Result != nil {
			r.results.Put(res.Key, res.Result)
		}
	}
}

// result returns the replicated finished result for a canonical job key.
func (r *replica) result(key string) (*YieldResult, bool) {
	return r.results.Get(key)
}

// takeJobs drains the unfinished-job set for resubmission on promotion.
func (r *replica) takeJobs() map[string]YieldSpec {
	r.mu.Lock()
	defer r.mu.Unlock()
	jobs := r.jobs
	r.jobs = make(map[string]YieldSpec)
	return jobs
}

func (r *replica) counts() (jobs, results int) {
	r.mu.Lock()
	jobs = len(r.jobs)
	r.mu.Unlock()
	return jobs, r.results.Len()
}

// Fleet liveness: the heartbeat period FleetConfig.Heartbeat overrides, and
// how many consecutive missed heartbeats make a worker declare its
// coordinator dead and start an election.
const (
	defaultHeartbeat = 2 * time.Second
	deadAfter        = 3
	// replicateTimeout bounds one best-effort replication push.
	replicateTimeout = 5 * time.Second
)

func (s *Server) heartbeatEvery() time.Duration {
	if hb := s.cfg.Fleet.Heartbeat; hb > 0 {
		return hb
	}
	return defaultHeartbeat
}

// fleetRPCTimeout bounds one heartbeat or election probe. The heartbeat
// period sets the liveness cadence, not the patience: a sub-second period
// (as in tests) must not turn a slow-but-alive peer into a presumed-dead
// one, so the per-request timeout never drops below a second. A dead
// process fails fast anyway (connection refused), so detection latency
// stays governed by the period.
func (s *Server) fleetRPCTimeout() time.Duration {
	if hb := s.heartbeatEvery(); hb > time.Second {
		return hb
	}
	return time.Second
}

// fleetView is a worker's last confirmed picture of the fleet: who the
// coordinator is, where it answers, and the electorate.
type fleetView struct {
	coordNode string
	coordURL  string
	peers     []FleetPeer
	client    *Client // the client pinned to the coordinator being served
}

func (s *Server) setFleetView(v fleetView) {
	s.fleetMu.Lock()
	s.fleet = v
	s.fleetMu.Unlock()
}

func (s *Server) fleetSnapshot() fleetView {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	return s.fleet
}

// newFleetClient builds a client for fleet-internal traffic (heartbeats,
// leases, replication, election probes) on the server's shared outbound
// HTTP client — which is where Config.Transport (the chaos seam) applies —
// and on the server's clock.
func (s *Server) newFleetClient(base string) *Client {
	return &Client{BaseURL: base, HTTPClient: s.httpc, clk: s.clk}
}

// runWorkerFleet is a worker node's fleet life: serve the coordinator
// until it dies, elect a successor, then either promote this node or
// rejoin the winner — forever, until shutdown or drain.
func (s *Server) runWorkerFleet() {
	join := s.cfg.Fleet.Join
	for s.baseCtx.Err() == nil && !s.draining() {
		client := s.newFleetClient(join)
		if !s.serveCoordinator(client) {
			return // shutdown or drain
		}
		next, promote := s.elect()
		switch {
		case promote:
			s.promote()
			return
		case next != "":
			join = next
		default:
			// No winner found and this node cannot (or should not yet)
			// promote: fall back to the configured join list and keep
			// trying — the coordinator may simply be restarting.
			join = s.cfg.Fleet.Join
		}
	}
}

// serveCoordinator runs the lease loop and the heartbeat loop against one
// coordinator. It returns true when the coordinator was declared dead
// (missed heartbeats past the threshold) and false on shutdown/drain.
// The dead verdict is only ever reached after at least one successful
// heartbeat — a worker that never met its coordinator keeps knocking
// instead of electing itself leader of a fleet it never saw.
func (s *Server) serveCoordinator(client *Client) bool {
	hb := s.heartbeatEvery()
	// The lease loop makes this node a peer before its first heartbeat is
	// answered, so pin the client now: a drain in between must still
	// deregister from the coordinator it leased from.
	s.fleetMu.Lock()
	s.fleet.client = client
	s.fleetMu.Unlock()
	cctx, cancel := context.WithCancel(s.baseCtx)
	var wg sync.WaitGroup
	wg.Add(1)
	s.shardWG.Add(1)
	go func() {
		defer wg.Done()
		defer s.shardWG.Done()
		s.runShardWorker(cctx, client, s.counter)
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()

	misses, met := 0, false
	for {
		hctx, hcancel := context.WithTimeout(s.baseCtx, s.fleetRPCTimeout())
		// Piggyback the node's observability payload: cumulative sims (the
		// coordinator's throughput estimate) and the full metrics snapshot
		// (the fleet-wide merged scrape).
		snap := s.metrics.Snapshot()
		resp, err := client.Heartbeat(hctx, HeartbeatRequest{
			Node:    s.node,
			URL:     s.cfg.Fleet.AdvertiseURL,
			Sims:    s.counter.Total(),
			Metrics: &snap,
		})
		hcancel()
		switch {
		case err == nil:
			misses = 0
			met = true
			s.setFleetView(fleetView{
				coordNode: resp.Node,
				coordURL:  client.Endpoints(),
				peers:     resp.Peers,
				client:    client,
			})
		case s.baseCtx.Err() != nil || s.draining():
			return false
		default:
			misses++
			s.sm.heartbeatMisses.Inc()
			if met && misses >= deadAfter {
				s.log.Warnf("worker %s: coordinator missed %d heartbeats (%v), presumed dead", s.node, misses, err)
				return true
			}
		}
		if !sleep(s.baseCtx, s.clk, hb, s.drainCh) {
			return false
		}
	}
}

// elect decides what follows a dead coordinator. Candidates are the
// URL-bearing peers from the last confirmed peer table, sorted by node
// name; this node's rank is its index. Rank 0 promotes immediately (after
// one probe round, in case a winner already exists); rank r waits r
// stagger periods, probing every heartbeat for a peer that beat it to the
// coordinator role, and promotes only when the wait expires with no winner
// found — so if the fleet's lowest-ID peer died with the coordinator, the
// next one takes over one stagger later. Returns the winner's URL to
// rejoin, or promote=true when this node is the winner.
func (s *Server) elect() (next string, promote bool) {
	hb := s.heartbeatEvery()
	rpc := s.fleetRPCTimeout()
	// The stagger must dominate the worst-case skew between two workers
	// noticing the death plus the winner's promote latency — including the
	// RPC timeout floor, which bounds how long each of the loser's probes
	// can hang before it concludes "no winner yet".
	stagger := time.Duration(2*deadAfter+2) * hb
	if min := time.Duration(deadAfter+2) * rpc; stagger < min {
		stagger = min
	}
	view := s.fleetSnapshot()
	cands := make([]FleetPeer, 0, len(view.peers))
	for _, p := range view.peers {
		if p.URL != "" {
			cands = append(cands, p)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Node < cands[j].Node })
	rank := -1
	for i, p := range cands {
		if p.Node == s.node {
			rank = i
			break
		}
	}
	s.sm.elections.Inc()
	s.logf("worker %s: electing among %d candidate(s), own rank %d", s.node, len(cands), rank)

	start := s.clk.Now()
	for s.baseCtx.Err() == nil && !s.draining() {
		for _, p := range cands {
			if p.Node == s.node {
				continue
			}
			if role, ok := s.probeRole(p.URL, rpc); ok && role == "coordinator" {
				s.logf("worker %s: %s promoted itself, rejoining at %s", s.node, p.Node, p.URL)
				return p.URL, false
			}
		}
		// The old coordinator may have restarted (empty, but alive).
		if view.coordURL != "" {
			if role, ok := s.probeRole(view.coordURL, rpc); ok && role == "coordinator" {
				s.logf("worker %s: coordinator at %s is back, rejoining", s.node, view.coordURL)
				return view.coordURL, false
			}
		}
		waited := s.clk.Now().Sub(start)
		if rank >= 0 && waited >= time.Duration(rank)*stagger {
			return "", true
		}
		if rank < 0 && waited >= stagger {
			// Not electable (no advertised URL / not in the table): give
			// up on this electorate and retry the configured join list.
			return "", false
		}
		if !sleep(s.baseCtx, s.clk, hb, s.drainCh) {
			return "", false
		}
	}
	return "", false
}

// probeRole asks one node for its fleet role, bounded by timeout.
func (s *Server) probeRole(url string, timeout time.Duration) (string, bool) {
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	health, err := s.newFleetClient(url).Health(ctx)
	if err != nil {
		return "", false
	}
	fleet, _ := health["fleet"].(map[string]any)
	role, _ := fleet["role"].(string)
	return role, role != ""
}

// promote turns this worker into the fleet's coordinator: start a fresh
// shard scheduler that yield jobs run on, serving from the warm-shard store
// replication filled, start the in-process shard runner, and resubmit
// every replicated unfinished job — whose canonical keys make clients
// failing over from the dead coordinator coalesce straight onto the
// resumed work.
func (s *Server) promote() {
	s.mu.Lock()
	if s.coord != nil || s.closed {
		s.mu.Unlock()
		return
	}
	s.startCoordinator()
	s.mu.Unlock()
	s.sm.promotions.Inc()

	jobs := s.replica.takeJobs()
	s.logf("node %s promoted to coordinator: %d warm shard(s), resuming %d job(s)", s.node, s.shards.Len(), len(jobs))
	for key, spec := range jobs {
		s.resumeYield(key, spec)
	}
}

// startCoordinator makes this node its fleet's coordinator: yield jobs run
// on a fresh shard scheduler that adopts the node's warm-shard store.
// Unless NoSelfWork is set the coordinator is also a node of its own
// fleet: an in-process runner pulls from the same scheduler the remote
// workers lease from, so a 1-process coordinator completes jobs and an
// N-process fleet counts the coordinator as one of its N. New calls it
// before the server is shared; promote calls it holding s.mu.
func (s *Server) startCoordinator() {
	c := newCoordinator(s.cfg.Fleet, s.cfg.Hooks, s.node, s.clk, s.counter, s.log.With("coord"), s.sm, s.shards)
	c.onShardDone = s.replicateShardDone
	s.coord = c
	if s.cfg.Fleet.NoSelfWork {
		return
	}
	s.wg.Add(1)
	s.shardWG.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.shardWG.Done()
		// nil counter: the coordinator already counts every shard's sims
		// from its reported result; a local counter here would
		// double-count self-work.
		s.runShardWorker(s.baseCtx, c, nil)
	}()
}

// resumeYield resubmits a replicated job spec on this (just-promoted)
// node. The canonical key is carried over verbatim, so a client
// resubmitting the original request coalesces onto the resumed job.
func (s *Server) resumeYield(key string, spec YieldSpec) {
	j, coalesced, err := s.add("yield", spec.Scenario, key, s.yieldRun(key, spec))
	switch {
	case err != nil:
		s.logf("resuming job (key %q) failed: %v", key, err)
	case coalesced:
		s.logf("job %s already live here, not resumed (key %q)", j.ID, key)
	default:
		s.logf("job %s resumed from replicated spec (key %q)", j.ID, key)
	}
}

// replicateToPeers pushes req to every live URL-bearing peer of this
// coordinator, best effort: replication narrows the window a crash can
// lose, it never gates the job path.
func (s *Server) replicateToPeers(req ReplicateRequest) {
	c := s.getCoord()
	if c == nil {
		return
	}
	req.From = s.node
	for _, p := range c.livePeers() {
		go func(p FleetPeer) {
			ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
			defer cancel()
			if err := s.newFleetClient(p.URL).Replicate(ctx, req); err != nil {
				s.sm.replFailures.Inc()
				s.log.Warnf("replicating to %s (%s) failed: %v", p.Node, p.URL, err)
			}
		}(p)
	}
}

// replicateShardDone is the coordinator's shard-completion replication
// hook (wired as Coordinator.onShardDone).
func (s *Server) replicateShardDone(key string, pass []int) {
	s.replicateToPeers(ReplicateRequest{Shards: []ReplicatedShard{{Key: key, Pass: pass}}})
}

// draining reports whether Drain has been requested.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Drain begins a graceful exit from the fleet: stop leasing new shards,
// let in-flight shards finish and report their counts, then deregister
// from the coordinator so the peer table drops this node immediately
// instead of a clean shutdown looking like a crash. Jobs submitted to this
// node's own API keep running — call Close afterwards to stop those. ctx
// bounds the wait for in-flight shards.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.drainCh) })
	done := make(chan struct{})
	go func() {
		s.shardWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if view := s.fleetSnapshot(); view.client != nil {
		hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		if _, err := view.client.Heartbeat(hctx, HeartbeatRequest{Node: s.node, Leaving: true}); err == nil {
			s.logf("worker %s: deregistered from %s", s.node, view.coordNode)
		}
	}
	return nil
}
