package service_test

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/service"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// A caller who gives up cancels the job its Client.Yield created: the job
// ends cancelled, and the server's simulated-sample count stops within one
// chunk per worker of the moment the caller left. A job the giving-up
// caller only coalesced onto belongs to its creator and finishes.
func TestAbandonedYield(t *testing.T) {
	const workers = 2
	reg := obs.NewRegistry()
	svc, client := newTestServer(t, service.Config{Jobs: 2, Workers: workers, Metrics: reg})
	// ~100µs per evaluation × 2048-sample chunks: a chunk takes ~0.2 s, so
	// the job is mid-flight when its caller leaves.
	req := service.YieldRequest{Scenario: "svc-slow", N: 64 * yieldsim.ChunkSize, Seed: service.Seed(41)}

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, err := client.Yield(ctx, req)
		gone <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return svc.Sims() > 0 }, "job never started simulating")
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Yield returned %v, want context.Canceled", err)
	}
	// Give the server a moment to see the caller go before counting.
	time.Sleep(20 * time.Millisecond)
	left := svc.Sims()
	jobs := svc.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs, want the abandoned caller's one", len(jobs))
	}
	j, err := svc.Get(jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the abandoned job never ended")
	}
	if st := j.Status(); st.State != service.StateCancelled {
		t.Fatalf("the abandoned job ended %s, want cancelled", st.State)
	}
	stopped := svc.Sims()
	if extra := stopped - left; extra > workers*yieldsim.ChunkSize {
		t.Errorf("%d samples simulated after the caller left, want at most %d (one chunk per worker)", extra, workers*yieldsim.ChunkSize)
	}
	time.Sleep(300 * time.Millisecond)
	if got := svc.Sims(); got != stopped {
		t.Errorf("simulations still advancing after the job ended: %d → %d", stopped, got)
	}

	// A caller who coalesced onto another caller's job leaves it running.
	shared := service.YieldRequest{Scenario: "svc-slow", N: 4 * yieldsim.ChunkSize, Seed: service.Seed(42)}
	owner := make(chan *service.Status, 1)
	go func() {
		st, err := client.Yield(context.Background(), shared)
		if err != nil {
			t.Error(err)
		}
		owner <- st
	}()
	waitFor(t, 10*time.Second, func() bool { return len(svc.Jobs()) == 2 }, "the owner's job never appeared")
	coalesced := reg.Counter("service_cache_coalesced_total")
	ctx2, cancel2 := context.WithCancel(context.Background())
	gone2 := make(chan error, 1)
	go func() {
		_, err := client.Yield(ctx2, shared)
		gone2 <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return coalesced.Value() == 1 }, "the second caller never coalesced")
	cancel2()
	if err := <-gone2; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned coalesced Yield returned %v, want context.Canceled", err)
	}
	select {
	case st := <-owner:
		if st == nil || st.State != service.StateDone {
			t.Fatalf("the owner's job ended %+v, want done", st)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the owner's job never finished")
	}
}

// cutFirstPost is a client transport that cuts the first POST's connection
// while the server waits on it, once cut reports true — the reset or proxy
// timeout a client retries. Later requests pass through; with retryWait
// set, a later POST asks for that server-side wait instead of the
// client's, so the client goes on to poll.
type cutFirstPost struct {
	cut       func() bool
	retryWait string
	used      atomic.Bool
	didCut    atomic.Bool
	polled    atomic.Bool
}

func (c *cutFirstPost) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet {
		c.polled.Store(true)
	}
	if req.Method != http.MethodPost || c.used.Swap(true) {
		if req.Method == http.MethodPost && c.retryWait != "" {
			req = req.Clone(req.Context())
			req.URL.RawQuery = "wait=" + c.retryWait
		}
		return http.DefaultTransport.RoundTrip(req)
	}
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			if c.cut() {
				c.didCut.Store(true)
				cancel()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	resp, err := http.DefaultTransport.RoundTrip(req.WithContext(ctx))
	if c.didCut.Load() {
		if err == nil {
			resp.Body.Close()
		}
		return nil, errors.New("connection reset while the submission waited")
	}
	return resp, err
}

// A submission whose connection drops while the server waits on it is
// retried, and the retry finds its job still running: the job is not
// restarted (the server simulates its N samples once, not N plus a fresh
// start), and the client still owns it, so a caller who then leaves
// cancels it — here while the client polls, after the retried
// submission's wait expired.
func TestDroppedSubmissionResumes(t *testing.T) {
	reg := obs.NewRegistry()
	svc, client := newTestServer(t, service.Config{Jobs: 2, Workers: 2, Metrics: reg})
	tr := &cutFirstPost{cut: func() bool { return svc.Sims() > 0 }}
	client.HTTPClient = &http.Client{Transport: tr}
	req := service.YieldRequest{Scenario: "svc-slow", N: 8 * yieldsim.ChunkSize, Seed: service.Seed(43)}
	st, err := client.Yield(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.didCut.Load() {
		t.Fatal("the submission was never cut: the test shows nothing")
	}
	if st.State != service.StateDone {
		t.Fatalf("the retried submission ended %s, want done", st.State)
	}
	if n := len(svc.Jobs()); n != 1 {
		t.Errorf("%d jobs after the retry, want the one the dropped submission created", n)
	}
	if got := svc.Sims(); got != int64(req.N) {
		t.Errorf("%d samples simulated for a %d-sample job: the retry restarted it", got, req.N)
	}

	// The retry coalesced onto the job its own dropped attempt created, so
	// the caller still owns it: leaving cancels it.
	coalesced := reg.Counter("service_cache_coalesced_total")
	before := coalesced.Value()
	tr2 := &cutFirstPost{cut: func() bool { return svc.Sims() > int64(req.N) }, retryWait: "20ms"}
	client.HTTPClient = &http.Client{Transport: tr2}
	long := service.YieldRequest{Scenario: "svc-slow", N: 64 * yieldsim.ChunkSize, Seed: service.Seed(44)}
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, err := client.Yield(ctx, long)
		gone <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return coalesced.Value() > before }, "the retried submission never coalesced onto its job")
	waitFor(t, 10*time.Second, tr2.polled.Load, "the client never polled the job")
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Yield returned %v, want context.Canceled", err)
	}
	var j *service.Job
	for _, js := range svc.Jobs() {
		if js.State != service.StateDone {
			if j, err = svc.Get(js.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if j == nil {
		t.Fatal("the long job is missing")
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the abandoned job never ended: the retried submission lost its ownership")
	}
	if st := j.Status(); st.State != service.StateCancelled {
		t.Fatalf("the abandoned job ended %s, want cancelled", st.State)
	}
}
