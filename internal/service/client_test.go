package service_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eda-go/moheco/internal/service"
)

// TestClientRetriesTransient5xx: a daemon answering 5xx (restarting, proxy
// hiccup) is retried with backoff until it recovers; the caller never sees
// the transient failures.
func TestClientRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	client := service.NewClient(ts.URL)
	service.UseFakeClock(client)
	health, err := client.Health(context.Background())
	if err != nil {
		t.Fatalf("client gave up on a recovering daemon: %v", err)
	}
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3 (2 failures + 1 success)", got)
	}
}

// TestClientNoRetryOn4xx: a request the server rejects as wrong is not
// retried — hammering a daemon with a bad request would never succeed.
func TestClientNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	}))
	defer ts.Close()

	_, err := service.NewClient(ts.URL).Status(context.Background(), "j00000001")
	if err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("err = %v, want HTTP 404", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts for a 4xx, want 1", got)
	}
}

// TestClientContextBoundsRetries: the caller's deadline wins over the
// retry schedule.
func TestClientContextBoundsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := service.NewClient(ts.URL).Health(ctx); err == nil {
		t.Fatal("expected failure against a permanently down daemon")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("retries ran %v past a 150ms deadline", elapsed)
	}
}

// TestClientEndpointFailover: a comma-separated endpoint list fails over
// from a dead endpoint (connection refused) to a live one — the flag shape
// yieldest/mohecorun pass through from -server.
func TestClientEndpointFailover(t *testing.T) {
	_, liveClient := newTestServer(t, service.Config{Jobs: 1})
	live := liveClient.Endpoints()
	// A listener that was closed immediately: connections are refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	client := service.NewClient(deadURL + "," + live)
	st, err := client.Yield(context.Background(), service.YieldRequest{
		Scenario: "svc-test", N: 3000, Seed: service.Seed(1),
	})
	if err != nil {
		t.Fatalf("failover client failed: %v", err)
	}
	if st.State != service.StateDone || st.Yield == nil {
		t.Fatalf("state %s, yield %v", st.State, st.Yield)
	}

	// The surviving endpoint is remembered: the next request goes straight
	// to it (no renewed dial of the dead endpoint is observable here, but
	// the call must still succeed promptly).
	start := time.Now()
	if _, err := client.Health(context.Background()); err != nil {
		t.Fatalf("health after failover: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("preferred-endpoint request took %v, want fast path", elapsed)
	}
}

// TestClientResubmitsWhenEndpointDies: a job's endpoint dying mid-wait is
// survived by resubmitting on the failover list; canonical-key dedupe makes
// the retry converge on the same deterministic result.
func TestClientResubmitsWhenEndpointDies(t *testing.T) {
	// Endpoint 1 accepts the submit, then vanishes before the job is done:
	// a stub that answers the POST with a fake queued job and from then on
	// fails every request.
	var died atomic.Bool
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if died.Load() {
			http.Error(w, `{"error":"shutting down"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"j00000001","kind":"yield","scenario":"svc-test","state":"queued","created":"2026-01-01T00:00:00Z"}`))
		died.Store(true) // the first request is the submission
	}))
	defer stub.Close()
	_, liveClient := newTestServer(t, service.Config{Jobs: 1})

	client := service.NewClient(stub.URL + "," + liveClient.Endpoints())
	service.UseFakeClock(client)
	st, err := client.Yield(context.Background(), service.YieldRequest{
		Scenario: "svc-test", N: 3000, Seed: service.Seed(2),
	})
	if err != nil {
		t.Fatalf("client did not survive its submit endpoint dying: %v", err)
	}
	if st.State != service.StateDone || st.Yield == nil {
		t.Fatalf("state %s, yield %v", st.State, st.Yield)
	}
}

// TestClientHonorsRetryAfter: a 503 carrying Retry-After is the server
// saying when retrying becomes worthwhile (the daemon sets it on a full
// queue); the client's next attempt must wait at least that long even when
// its own computed backoff for the try is shorter.
func TestClientHonorsRetryAfter(t *testing.T) {
	var clk *service.FakeClock
	var mu sync.Mutex
	var hits []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits = append(hits, clk.Now())
		n := len(hits)
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	client := service.NewClient(ts.URL)
	clk = service.UseFakeClock(client)
	if _, err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hits) != 2 {
		t.Fatalf("server saw %d attempts, want 2", len(hits))
	}
	// The computed try-0 backoff is at most retryBase (200ms); a gap of ~1s
	// of virtual time proves the advertised wait won.
	if gap := hits[1].Sub(hits[0]); gap < 900*time.Millisecond {
		t.Errorf("retry came after %v, want >= ~1s (Retry-After ignored)", gap)
	}
}

// TestClientFailureBudgetBoundsAttempts: against a fleet that is down and
// stays down, the layered retries (per-request attempts × resubmits) must
// not multiply — one logical call spends one failure budget across all
// layers and gives up in bounded time with a bounded number of attempts.
// In the "down" case every request fails, so the submission's own
// attempts end the call. In the "polls fail" case every submission is
// accepted, so the failures land on the job polls and the resubmits after
// each lost endpoint: per-layer limits alone would allow (1 + endpoints)
// resubmits of clientRetryMax polls each, and the shared budget must end
// the call first, after exactly its retries plus the failure that found
// it empty.
func TestClientFailureBudgetBoundsAttempts(t *testing.T) {
	const budget = 12 // clientAttemptBudget
	for _, c := range []struct {
		name        string
		acceptPosts bool
	}{
		{"down", false},
		{"polls fail", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var calls, submits, polls atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				if r.Method == http.MethodPost {
					n := submits.Add(1)
					if c.acceptPosts {
						w.Header().Set("Content-Type", "application/json")
						fmt.Fprintf(w, `{"id":"job-%d","state":"running"}`, n)
						return
					}
				} else {
					polls.Add(1)
				}
				http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
			}))
			defer ts.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			client := service.NewClient(ts.URL)
			clk := service.UseFakeClock(client)
			start := clk.Now()
			_, err := client.Yield(ctx, service.YieldRequest{
				Scenario: "svc-test", N: 1000, Seed: service.Seed(1),
			})
			if err == nil {
				t.Fatal("Yield succeeded against a server failing every request it must answer")
			}
			if ctx.Err() != nil {
				t.Fatal("client only stopped because the context expired — the budget did not bind")
			}
			// 1 free attempt per request layer plus the shared budget of
			// failure-driven retries bounds the damage.
			const maxAttempts = 4 + budget // resubmit layers + clientAttemptBudget
			if got := calls.Load(); got > maxAttempts {
				t.Errorf("server saw %d attempts, want <= %d", got, maxAttempts)
			}
			if elapsed := clk.Now().Sub(start); elapsed > 30*time.Second {
				t.Errorf("giving up took %v", elapsed)
			}
			if !c.acceptPosts {
				return
			}
			if !strings.Contains(err.Error(), "attempt budget exhausted") {
				t.Errorf("the call ended with %v, not on its attempt budget", err)
			}
			if got := polls.Load(); got != budget+1 {
				t.Errorf("server saw %d polls, want %d (the budget's retries and the failure that emptied it)", got, budget+1)
			}
			if got := submits.Load(); got != 3 {
				t.Errorf("server saw %d submissions, want 3 (the first and two resubmits after lost polls)", got)
			}
		})
	}
}
