package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptrace"
	"net/textproto"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/eda-go/moheco/internal/scenario"
)

// Client talks to a mohecod daemon. The CLIs use it behind their -server
// flags, so a laptop `yieldest -server http://host:8650` shares the
// daemon's warm engines and result cache instead of simulating locally.
//
// The base URL may be a comma-separated endpoint list; the client fails
// over between them. Transient failures — connection errors and HTTP 5xx —
// are retried with capped exponential backoff plus jitter, rotating to the
// next endpoint each attempt; the caller's context deadline always wins.
// Because job IDs are node-local, a submitted job is polled only on the
// endpoint that accepted it ("pinned"); if that endpoint dies mid-wait the
// client resubmits elsewhere, which is safe (and usually free) because the
// canonical-key cache dedupes identical requests.
//
// Yield and Optimize submit with a server-side wait (?wait), so a job that
// finishes within the long-poll window costs one HTTP exchange; a longer
// job is then long-polled until completion. A caller that goes away
// (Ctrl-C, -timeout) abandons its job: the client best-effort DELETEs the
// job its submission created, whose ID the server announces in a 103
// interim response before it waits (see createdJobs). A result served
// from cache, or a job coalesced with someone else's identical in-flight
// request, is left alone.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8650", or a
	// comma-separated list of roots to fail over between.
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client

	clk       clock // nil = wallClock
	mu        sync.Mutex
	endpoints []string
	pref      int // index of the last endpoint that answered
}

// Client-side retry policy for transient failures.
const (
	clientRetryCap = 3 * time.Second
	clientRetryMax = 5 // attempts per request before surfacing the error
	// clientAttemptBudget caps the *retries after transient failures* one
	// logical call spends across all its layers combined — endpoint
	// failover, job polls, resubmits after a lost endpoint. Successful
	// requests are free (a long job legitimately polls for hours); only
	// failure-driven retries are metered, because per-layer retry limits
	// multiply and the budget keeps a fully-down fleet failing in bounded
	// time instead of the product of every layer's patience.
	clientAttemptBudget = 12
)

// errBudget marks a logical call that ran out of its attempt budget.
var errBudget = errors.New("service: retry attempt budget exhausted")

// attemptBudget meters one logical call's failure-driven retries. Not safe
// for concurrent use; each call carries its own.
type attemptBudget struct{ left int }

func newAttemptBudget() *attemptBudget { return &attemptBudget{left: clientAttemptBudget} }

// spend consumes one retry, reporting false once the budget is gone.
func (b *attemptBudget) spend() bool {
	if b.left <= 0 {
		return false
	}
	b.left--
	return true
}

// NewClient returns a client for the daemon at base — a single URL or a
// comma-separated failover list.
func NewClient(base string) *Client {
	return &Client{BaseURL: base}
}

// clock returns the client's clock: a fleet client shares its server's,
// any other client reads the wall.
func (c *Client) clock() clock {
	if c.clk == nil {
		return wallClock{}
	}
	return c.clk
}

// eps returns the parsed endpoint list (lazily, so a Client constructed as
// a literal with just BaseURL keeps working).
func (c *Client) eps() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.endpoints == nil {
		for _, p := range strings.Split(c.BaseURL, ",") {
			if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
				c.endpoints = append(c.endpoints, p)
			}
		}
		if c.endpoints == nil {
			c.endpoints = []string{""}
		}
	}
	return c.endpoints
}

// Endpoints returns the failover list as a comma-separated string.
func (c *Client) Endpoints() string { return strings.Join(c.eps(), ",") }

func (c *Client) preferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pref
}

func (c *Client) setPreferred(i int) {
	c.mu.Lock()
	c.pref = i
	c.mu.Unlock()
}

// Yield submits a yield-estimate request and blocks until the served
// result (or the job's failure) arrives.
func (c *Client) Yield(ctx context.Context, req YieldRequest) (*Status, error) {
	return c.submitAndAwait(ctx, "/v1/yield", req)
}

// Optimize submits an optimization request and blocks until completion.
func (c *Client) Optimize(ctx context.Context, req OptimizeRequest) (*Status, error) {
	return c.submitAndAwait(ctx, "/v1/optimize", req)
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (*Status, error) {
	var st Status
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) (*Status, error) {
	var st Status
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Scenarios fetches the daemon's scenario registry.
func (c *Client) Scenarios(ctx context.Context) ([]scenario.Info, error) {
	var resp struct {
		Scenarios []scenario.Info `json:"scenarios"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/scenarios", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Scenarios, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	var resp map[string]any
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// LeaseShards implements shardSource over HTTP: fleet workers pull shard
// leases from their coordinator with it.
func (c *Client) LeaseShards(ctx context.Context, node string, max int) ([]Shard, time.Duration, error) {
	var resp ShardLeaseResponse
	if err := c.do(ctx, http.MethodPost, "/v1/shards/lease", ShardLeaseRequest{Node: node, Max: max}, &resp); err != nil {
		return nil, 0, err
	}
	return resp.Shards, time.Duration(resp.LeaseMS) * time.Millisecond, nil
}

// CompleteShard implements shardSource over HTTP.
func (c *Client) CompleteShard(ctx context.Context, id string, res ShardResult) error {
	return c.do(ctx, http.MethodPost, "/v1/shards/"+id+"/complete", res, nil)
}

// Heartbeat announces a fleet node's liveness to its coordinator and
// returns the live-peer table. It is a single attempt with no internal
// retries: the caller's missed-heartbeat counting *is* the retry policy,
// and masking failures here would delay dead-coordinator detection by the
// whole retry schedule.
func (c *Client) Heartbeat(ctx context.Context, req HeartbeatRequest) (*HeartbeatResponse, error) {
	eps := c.eps()
	var resp HeartbeatResponse
	if err := c.once(ctx, eps[c.preferred()%len(eps)], http.MethodPost, "/v1/fleet/heartbeat", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Replicate pushes replicated fleet state (job specs, results, shard
// counts) to the peer this client points at.
func (c *Client) Replicate(ctx context.Context, req ReplicateRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/fleet/replicate", req, nil)
}

// errJobLost marks a pinned endpoint that stopped answering (or forgot the
// job) mid-wait; submitAndAwait reacts by resubmitting on the survivors.
var errJobLost = errors.New("service: job endpoint lost")

func (c *Client) submitAndAwait(ctx context.Context, path string, req any) (*Status, error) {
	// Bounded resubmits, two causes: a coalesced job cancelled under us by
	// whoever created it (their DELETE kills the shared job — the key slot
	// is free again, so a resubmit runs fresh), and a pinned endpoint dying
	// mid-wait (the job ID means nothing elsewhere, so a resubmit on a
	// surviving endpoint is the failover path; the canonical-key cache makes
	// it cheap when the work already completed). One attempt budget spans
	// the whole logical call — submit, polls, and every resubmit draw from
	// the same pool, so layered retries cannot multiply.
	resubmits := 1 + len(c.eps())
	b := newAttemptBudget()
	for attempt := 0; ; attempt++ {
		st, err := c.submitAndAwaitOnce(ctx, b, path, req)
		if err == nil || ctx.Err() != nil || attempt >= resubmits || errors.Is(err, errBudget) {
			return st, err
		}
		lost := errors.Is(err, errJobLost)
		cancelled := st != nil && st.State == StateCancelled
		if !lost && !cancelled {
			return st, err
		}
	}
}

func (c *Client) submitAndAwaitOnce(ctx context.Context, b *attemptBudget, path string, req any) (*Status, error) {
	var st Status
	created := &createdJobs{}
	ep, err := c.doFailover(context.WithValue(ctx, createdKey{}, created), b, http.MethodPost, path+"?wait="+longPoll, req, &st)
	if err != nil {
		if ctx.Err() != nil {
			// The caller left while a submission waited: cancel what our
			// own submissions created.
			for ep, id := range created.all() {
				c.abandon(ep, id)
			}
		}
		return nil, err
	}
	// Only the submission response carries the coalesced/cached marker;
	// preserve it across polls — it both reaches the caller and decides
	// whether an abandoned job may be cancelled. A job coalesced with
	// someone else's request is left running, but a retried submission that
	// coalesced onto the job its own dropped attempt created still owns it.
	cached := st.Cached
	ours := !cached || created.id(ep) == st.ID
	for !st.State.Terminal() {
		if err := ctx.Err(); err != nil {
			if ours {
				c.abandon(ep, st.ID)
			}
			return nil, err
		}
		next, err := c.poll(ctx, b, ep, st.ID)
		if err != nil {
			if ctx.Err() != nil {
				if ours {
					c.abandon(ep, st.ID)
				}
				return nil, ctx.Err()
			}
			if errors.Is(err, errBudget) {
				return nil, err
			}
			// The pinned endpoint is gone (retries exhausted) or restarted
			// without the job: fail over by resubmitting.
			return nil, fmt.Errorf("%w: %v", errJobLost, err)
		}
		st = *next
		st.Cached = cached
	}
	if st.State == StateFailed {
		return &st, fmt.Errorf("service: job %s failed: %s", st.ID, st.Error)
	}
	if st.State == StateCancelled {
		return &st, fmt.Errorf("service: job %s was cancelled", st.ID)
	}
	return &st, nil
}

// longPoll is the server-side wait of a submission and of each poll.
const longPoll = "10s"

// poll long-polls the job for up to longPoll server-side on its pinned
// endpoint; the request context still bounds the whole call.
func (c *Client) poll(ctx context.Context, b *attemptBudget, ep, id string) (*Status, error) {
	var st Status
	if _, err := c.retry(ctx, b, []string{ep}, 0, http.MethodGet, "/v1/jobs/"+id+"?wait="+longPoll, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// abandon cancels the job id on endpoint ep, which this client created and
// whose caller went away, so the daemon stops simulating for nobody. A job
// someone else coalesces onto *after* we created it can still be cancelled
// by our abandon — those waiters resubmit (see submitAndAwait), trading
// one redundant cancel for not leaking abandoned work.
func (c *Client) abandon(ep, id string) {
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var out Status
	_, _ = c.retry(ctx, newAttemptBudget(), []string{ep}, 0, http.MethodDelete, "/v1/jobs/"+id, nil, &out)
}

// createdJobs records, per endpoint, the job a submission's own request
// created there. A server that waits on a submission (?wait) first names
// the job it created in a 103 interim response (its Location), so the
// client knows the job's ID while the final response is still pending: a
// caller who leaves mid-wait can cancel it, and a submission retried after
// a dropped connection, which coalesces onto that same job, still owns it.
// The server never cancels a job on a disconnect, which it cannot tell
// from a drop the client retries.
type createdJobs struct {
	mu  sync.Mutex
	ids map[string]string // endpoint → job ID
}

// createdKey carries a submission's createdJobs to once in its context.
type createdKey struct{}

// note records an interim response's Location from endpoint ep.
func (cr *createdJobs) note(ep, location string) {
	id, ok := strings.CutPrefix(location, "/v1/jobs/")
	if !ok || id == "" {
		return
	}
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if cr.ids == nil {
		cr.ids = map[string]string{}
	}
	cr.ids[ep] = id
}

// id returns the job the submission created on ep, or "".
func (cr *createdJobs) id(ep string) string {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.ids[ep]
}

// all returns a copy of every recorded job.
func (cr *createdJobs) all() map[string]string {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return maps.Clone(cr.ids)
}

// statusError is an HTTP error response; codes >= 500 are transient.
// retryAfter carries the server's Retry-After header (0 = none): the
// server knows when its condition clears (queue drainage, restart), so the
// advertised wait overrides a shorter computed backoff.
type statusError struct {
	code       int
	method     string
	path       string
	msg        string
	retryAfter time.Duration
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("service: %s %s: %s (HTTP %d)", e.method, e.path, e.msg, e.code)
	}
	return fmt.Sprintf("service: %s %s: HTTP %d", e.method, e.path, e.code)
}

// transient reports whether an attempt's failure merits a retry: network
// trouble (connection refused, reset, timeout) and server-side 5xx are;
// 4xx — the request itself is wrong — is not.
func transient(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	// Anything else out of the transport (url.Error wrapping a syscall
	// error, an aborted body read) is connection trouble.
	return true
}

// do performs a request with retry and endpoint failover under a fresh
// attempt budget.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	_, err := c.doFailover(ctx, newAttemptBudget(), method, path, body, out)
	return err
}

// doFailover retries transient failures across the endpoint list, starting
// at the last endpoint that answered, and returns the one that did.
func (c *Client) doFailover(ctx context.Context, b *attemptBudget, method, path string, body, out any) (string, error) {
	eps := c.eps()
	i, err := c.retry(ctx, b, eps, c.preferred()%len(eps), method, path, body, out)
	if err != nil {
		return "", err
	}
	c.setPreferred(i)
	return eps[i], nil
}

// retry is the client's one retry loop: it retries transient failures under
// b, rotating through eps from index start one endpoint per attempt, and
// returns the index of the endpoint that answered. A one-endpoint list pins
// the request — job polls and cancels use that, since other endpoints would
// not recognize the job's ID. Every transient failure spends from b, and
// the last attempt's failure surfaces at once, with no backoff after it.
func (c *Client) retry(ctx context.Context, b *attemptBudget, eps []string, start int, method, path string, body, out any) (int, error) {
	for try := 0; ; try++ {
		i := (start + try) % len(eps)
		err := c.once(ctx, eps[i], method, path, body, out)
		if err == nil {
			return i, nil
		}
		if !transient(err) || ctx.Err() != nil {
			return 0, err
		}
		if !b.spend() {
			return 0, fmt.Errorf("%w (last failure: %v)", errBudget, err)
		}
		if try == clientRetryMax-1 {
			return 0, err
		}
		// A Retry-After the server attached extends the wait: the server
		// knows when retrying becomes worthwhile.
		var floor time.Duration
		var se *statusError
		if errors.As(err, &se) {
			floor = se.retryAfter
		}
		if !backoff(ctx, c.clock(), try, clientRetryCap, floor) {
			return 0, ctx.Err()
		}
	}
}

// once performs a single attempt against a single endpoint.
func (c *Client) once(ctx context.Context, ep, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	if cr, ok := ctx.Value(createdKey{}).(*createdJobs); ok {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			Got1xxResponse: func(code int, h textproto.MIMEHeader) error {
				if code == http.StatusEarlyHints {
					cr.note(ep, h.Get("Location"))
				}
				return nil
			},
		})
	}
	req, err := http.NewRequestWithContext(ctx, method, ep+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		route, _, _ := strings.Cut(path, "?")
		se := &statusError{code: resp.StatusCode, method: method, path: route}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				se.retryAfter = time.Duration(secs) * time.Second
			}
		}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil {
			se.msg = e.Error
		}
		return se
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
