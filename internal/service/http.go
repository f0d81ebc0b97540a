package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/scenario"
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/yield            submit a yield-estimate job (?wait to block until done)
//	POST   /v1/optimize         submit an optimization job (?wait to block until done)
//	GET    /v1/jobs             list retained jobs, newest first
//	GET    /v1/jobs/{id}        job status + result (?wait=DUR long-polls completion)
//	DELETE /v1/jobs/{id}        cancel the job
//	GET    /v1/jobs/{id}/events SSE progress stream until completion
//	GET    /v1/jobs/{id}/trace  the job's span record (queue → shards → merge, per-node attribution)
//	GET    /v1/scenarios        the scenario registry (dims, defaults, reference design)
//	GET    /v1/fleet/status     fleet topology + per-peer throughput (FleetStatus)
//	GET    /healthz             liveness, build/version, worker + lane config, fleet role, counters
//	GET    /metrics             Prometheus text exposition (?fleet=1 on a coordinator merges peers)
//	GET    /debug/vars          the same metrics as a flat expvar-style JSON object
//
// Every node additionally serves the fleet protocol. The shard and
// heartbeat routes answer 409 on a node that is not currently the
// coordinator — "currently" because a worker that wins a hand-off election
// becomes the coordinator at runtime, so the routes must exist everywhere
// and check per request:
//
//	POST   /v1/shards/lease         lease up to `max` shards for `node` (long-polls when idle)
//	POST   /v1/shards/{id}/complete report a shard's per-chunk pass counts (or failure)
//	POST   /v1/fleet/heartbeat      announce liveness, receive the live-peer table
//	POST   /v1/fleet/replicate      push replicated job specs / results / shard counts
//
// Every response body is JSON except the SSE stream. Submissions respond
// with the job's Status; the `cached` field marks a request coalesced onto
// an existing job (in flight) or served from the result cache (done). A
// submission that waits (?wait) on a job it created first answers 103 Early
// Hints with the job's Location, so its client can cancel the job if it
// gives up; a disconnect alone cancels nothing.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("POST /v1/yield", s.handleSubmitYield)
	mux.HandleFunc("POST /v1/optimize", s.handleSubmitOptimize)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/fleet/status", s.handleFleetStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("POST /v1/shards/lease", s.handleShardLease)
	mux.HandleFunc("POST /v1/shards/{id}/complete", s.handleShardComplete)
	mux.HandleFunc("POST /v1/fleet/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/fleet/replicate", s.handleReplicate)
	return mux
}

// errNotCoordinator answers fleet-protocol requests aimed at a node that
// does not (currently) schedule shards; 409 is deliberately a non-retrying
// status — the sender must re-resolve who coordinates, not hammer.
var errNotCoordinator = errors.New("service: this node is not the fleet coordinator")

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	counts := s.JobCounts()
	byState := make(map[string]int, len(counts))
	for st, n := range counts {
		byState[string(st)] = n
	}
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	backend := "local" // where yield jobs run
	if s.getCoord() != nil {
		backend = "coordinator"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"version":   Version,
		"go":        runtime.Version(),
		"uptime_s":  s.Uptime().Seconds(),
		"sims":      s.Sims(),
		"jobs":      byState,
		"job_lanes": s.cfg.Jobs,
		"workers":   workers,
		"backend":   backend,
		"fleet":     s.Fleet(),
		"scenarios": len(scenario.Names()),
	})
}

// handleShardLease serves POST /v1/shards/lease: block (bounded by the
// coordinator's long-poll) until shards are available, then lease them to
// the requesting node.
func (s *Server) handleShardLease(w http.ResponseWriter, r *http.Request) {
	var req ShardLeaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Node == "" {
		writeError(w, http.StatusBadRequest, errors.New("service: shard lease needs a node name"))
		return
	}
	c := s.getCoord()
	if c == nil {
		writeError(w, http.StatusConflict, errNotCoordinator)
		return
	}
	shards, lease, err := c.LeaseShards(r.Context(), req.Node, req.Max)
	if err != nil {
		// Only the caller's disconnect gets here; the status is moot.
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if shards == nil {
		shards = []Shard{}
	}
	writeJSON(w, http.StatusOK, ShardLeaseResponse{Shards: shards, LeaseMS: lease.Milliseconds()})
}

// handleShardComplete serves POST /v1/shards/{id}/complete. Stale and
// duplicate completions answer 200 like live ones — re-dispatch makes them
// normal, and the worker has nothing to do about it either way.
func (s *Server) handleShardComplete(w http.ResponseWriter, r *http.Request) {
	var res ShardResult
	if !decodeJSON(w, r, &res) {
		return
	}
	c := s.getCoord()
	if c == nil {
		writeError(w, http.StatusConflict, errNotCoordinator)
		return
	}
	if err := c.CompleteShard(r.Context(), r.PathValue("id"), res); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleHeartbeat serves POST /v1/fleet/heartbeat: record the announcing
// worker in the peer table and answer with the coordinator's identity and
// live electorate. Workers read the 409 of a non-coordinator as "this
// endpoint cannot lead me" — during an election that is exactly the signal
// distinguishing a restarted-but-demoted node from a promoted one.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Node == "" {
		writeError(w, http.StatusBadRequest, errors.New("service: heartbeat needs a node name"))
		return
	}
	c := s.getCoord()
	if c == nil {
		writeError(w, http.StatusConflict, errNotCoordinator)
		return
	}
	writeJSON(w, http.StatusOK, c.Heartbeat(req))
}

// handleReplicate serves POST /v1/fleet/replicate: fold a coordinator's
// replication push into this node's replica and warm-shard store. Any node
// accepts — replication is what a worker holds precisely so it can
// coordinate later.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req ReplicateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.replica.apply(req)
	for _, sh := range req.Shards {
		s.shards.Put(sh.Key, sh.Pass)
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format. On a coordinator, ?fleet=1 merges the last piggybacked snapshot
// of every live peer into the local one — counters across the fleet sum,
// so `yieldsim_samples_simulated_total` over a sharded job equals the
// requested n no matter which nodes simulated which shards.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	if r.URL.Query().Get("fleet") != "" {
		if c := s.getCoord(); c != nil {
			_ = c.mergedSnapshot(s.metrics.Snapshot()).WritePrometheus(w)
			return
		}
	}
	_ = s.metrics.WritePrometheus(w)
}

// handleVars serves GET /debug/vars: the same registry as a flat
// expvar-style JSON object (curl | jq territory).
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.metrics.WriteVars(w)
}

// handleFleetStatus serves GET /v1/fleet/status — the same FleetStatus
// block /healthz embeds, addressable on its own for fleet dashboards.
func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Fleet())
}

// handleTrace serves GET /v1/jobs/{id}/trace: the job's full span record.
// The trace lives on the job, so it is retained exactly as long as the
// job's status.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, j.trace.View())
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	// Every scenario accepts every registered search backend: the
	// estimation seam is scenario-agnostic, so the advertisement is the
	// core registry, stamped per scenario for client convenience.
	infos := scenario.Describe()
	backends := core.Backends()
	for i := range infos {
		infos[i].Optimizers = backends
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": infos, "optimizers": backends})
}

func (s *Server) handleSubmitYield(w http.ResponseWriter, r *http.Request) {
	var req YieldRequest
	wait, ok := waitParam(w, r)
	if !ok || !decodeJSON(w, r, &req) {
		return
	}
	j, cached, err := s.SubmitYield(req)
	s.respondSubmitted(w, r, wait, j, cached, err)
}

func (s *Server) handleSubmitOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	wait, ok := waitParam(w, r)
	if !ok || !decodeJSON(w, r, &req) {
		return
	}
	j, cached, err := s.SubmitOptimize(req)
	s.respondSubmitted(w, r, wait, j, cached, err)
}

// respondSubmitted maps a submission outcome to HTTP: 400 for a rejected
// request, 503 for a full queue, otherwise the job's status — after waiting
// up to wait for its completion (see waitParam; an expired wait still
// returns the current status, it never cancels the shared job). Before
// waiting on a job the request created, it names the job in a 103 interim
// response (Location), so a client that gives up mid-wait can DELETE it. A disconnect alone
// never cancels a job: it may be a drop the client retries, and the
// retried submission coalesces onto the job still running.
func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, wait time.Duration, j *Job, cached bool, err error) {
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed):
		// Retry-After turns the rejection into advice: the queue drains at
		// job speed, so an immediate client retry would meet the same 503.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	if wait > 0 {
		if !cached {
			w.WriteHeader(http.StatusEarlyHints)
		}
		waitCtx, cancel := context.WithTimeout(r.Context(), wait)
		_ = j.Wait(waitCtx)
		cancel()
	}
	st := j.Status()
	st.Cached = cached
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	wait, ok := waitParam(w, r)
	if !ok {
		return
	}
	j, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if wait > 0 {
		waitCtx, cancel := context.WithTimeout(r.Context(), wait)
		_ = j.Wait(waitCtx)
		cancel()
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	// Report the post-cancel state; queued jobs flip once a runner pops
	// them, running ones once their in-flight chunks drain — give the
	// common fast path a moment to settle so most DELETE responses
	// already read "cancelled".
	waitCtx, cancel := context.WithTimeout(r.Context(), time.Second)
	_ = j.Wait(waitCtx)
	cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

// eventInterval is the period of an SSE stream's progress frames.
const eventInterval = 500 * time.Millisecond

// handleEvents streams job progress as server-sent events: a `status`
// event immediately, `progress` events every eventInterval while the job
// runs, and a final `done` event with the completed status. A dropped
// subscriber only ends its own stream — jobs are shared, so watching (or
// unwatching) never cancels one; DELETE does.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("service: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	s.sm.sseSubscribers.Add(1)
	defer s.sm.sseSubscribers.Add(-1)

	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !send("status", j.Status()) {
		return
	}
	tick, stop := s.clk.NewTicker(eventInterval)
	defer stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			send("done", j.Status())
			return
		case <-tick:
			if !send("progress", j.Status()) {
				return
			}
		}
	}
}

// waitLimit caps the server-side block of ?wait requests.
const waitLimit = 30 * time.Second

// waitParam parses the `wait` query parameter into how long the request
// waits for its job: absent, `false` or a duration ≤ 0 → no wait; empty or
// bare `wait`, `true` or `1` → waitLimit; a positive duration → that
// duration capped at waitLimit. Any other value answers 400 and reports
// false.
func waitParam(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	q := r.URL.Query()
	if !q.Has("wait") {
		return 0, true
	}
	switch v := q.Get("wait"); v {
	case "", "true", "1":
		return waitLimit, true
	case "false":
		return 0, true
	default:
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad wait %q: want true, false or a duration", v))
			return 0, false
		}
		return min(max(d, 0), waitLimit), true
	}
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeBody(http.MaxBytesReader(w, r.Body, 1<<20), v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
		return false
	}
	return true
}

// decodeBody decodes one JSON request body from rd into v, rejecting
// fields v does not declare.
func decodeBody(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
