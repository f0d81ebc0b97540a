package service_test

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	_ "github.com/eda-go/moheco/internal/circuits" // register the built-in scenarios
	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/service"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// newTestServer starts a service on an httptest listener and returns it
// with a matching client. The server's Sims counts every served
// simulation.
func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *service.Client) {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, service.NewClient(ts.URL)
}

// TestServedYieldBitIdentical is the end-to-end determinism contract: a
// POST /v1/yield result equals the in-process estimator bit for bit at the
// same (scenario, x, n, seed, sampler) — for the plain-MC default and for
// each alternative sample plan.
func TestServedYieldBitIdentical(t *testing.T) {
	_, client := newTestServer(t, service.Config{Jobs: 2})
	ctx := context.Background()

	for _, tc := range []struct {
		scenarioName string
		n            int
		seed         uint64
		sampler      string
	}{
		{"svc-test", 5000, 42, ""},
		{"svc-test", 5000, 42, "lhs"},
		{"svc-test", 5000, 42, "halton"},
		{"commonsource", 4096, 7, "pmc"},
	} {
		st, err := client.Yield(ctx, service.YieldRequest{
			Scenario: tc.scenarioName,
			N:        tc.n,
			Seed:     service.Seed(tc.seed),
			Sampler:  tc.sampler,
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if st.State != service.StateDone || st.Yield == nil {
			t.Fatalf("%+v: state %s, yield %v", tc, st.State, st.Yield)
		}
		p := scenario.MustGet(tc.scenarioName).New()
		x, _ := scenario.ReferenceDesign(p)
		var plan sample.Sampler
		if tc.sampler != "" {
			var err error
			plan, err = sample.ByName(tc.sampler)
			if err != nil {
				t.Fatal(err)
			}
		}
		want, _, err := yieldsim.ReferenceCtx(nil, p, x, tc.n, tc.seed, yieldsim.RefOptions{Sampler: plan})
		if err != nil {
			t.Fatal(err)
		}
		if st.Yield.Yield != want {
			t.Errorf("%+v: served yield %v, local %v", tc, st.Yield.Yield, want)
		}
		// The synthetic fixture must keep a yield strictly inside (0, 1)
		// or the equality above stops discriminating; the real circuits
		// are checked as-is (commonsource sits at ~100%).
		if tc.scenarioName == "svc-test" && (want == 0 || want == 1) {
			t.Errorf("%+v: degenerate yield %v — the fixture no longer discriminates", tc, want)
		}
	}
}

// TestCacheHitZeroSims asserts the result cache: a repeated identical
// request is served without a single new simulator call, while a changed
// request (different seed) runs fresh.
func TestCacheHitZeroSims(t *testing.T) {
	svc, client := newTestServer(t, service.Config{Jobs: 2})
	ctx := context.Background()
	req := service.YieldRequest{Scenario: "svc-test", N: 3000, Seed: service.Seed(9)}

	first, err := client.Yield(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	simsAfterFirst := svc.Sims()
	if simsAfterFirst != 3000 {
		t.Fatalf("first request cost %d sims, want 3000", simsAfterFirst)
	}

	second, err := client.Yield(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical request not marked cached")
	}
	if second.ID != first.ID {
		t.Errorf("second request got job %s, want cached %s", second.ID, first.ID)
	}
	if got := svc.Sims(); got != simsAfterFirst {
		t.Errorf("cache hit cost %d extra sims", got-simsAfterFirst)
	}
	if second.Yield.Yield != first.Yield.Yield {
		t.Errorf("cached yield %v != original %v", second.Yield.Yield, first.Yield.Yield)
	}

	// An explicit request equal to the resolved defaults coalesces too.
	p := scenario.MustGet("svc-test").New()
	x, _ := scenario.ReferenceDesign(p)
	third, err := client.Yield(ctx, service.YieldRequest{Scenario: "svc-test", X: x, N: 3000, Seed: service.Seed(9), Sampler: "PMC"})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || svc.Sims() != simsAfterFirst {
		t.Error("explicitly-spelled default request missed the cache")
	}

	// A different seed is a different computation.
	req.Seed = service.Seed(10)
	if _, err := client.Yield(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := svc.Sims(); got != simsAfterFirst+3000 {
		t.Errorf("changed-seed request cost %d sims, want 3000", got-simsAfterFirst)
	}
}

// TestInFlightDedupe asserts that two concurrent identical requests
// coalesce onto one job and one simulation budget.
func TestInFlightDedupe(t *testing.T) {
	svc, client := newTestServer(t, service.Config{Jobs: 4})
	ctx := context.Background()
	req := service.YieldRequest{Scenario: "svc-slow", N: 4096, Seed: service.Seed(11)}

	var wg sync.WaitGroup
	results := make([]*service.Status, 4)
	errs := make([]error, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.Yield(ctx, req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for _, st := range results[1:] {
		if st.ID != results[0].ID {
			t.Errorf("concurrent identical requests got jobs %s and %s", st.ID, results[0].ID)
		}
		if st.Yield.Yield != results[0].Yield.Yield {
			t.Error("concurrent identical requests disagree on the result")
		}
	}
	if got := svc.Sims(); got != 4096 {
		t.Errorf("4 coalesced requests cost %d sims, want 4096", got)
	}
}

// TestConcurrentJobs drives 8 distinct jobs across 2 scenarios at once and
// checks every served result against the local estimator.
func TestConcurrentJobs(t *testing.T) {
	_, client := newTestServer(t, service.Config{Jobs: 4, Workers: 2})
	ctx := context.Background()

	type reqRes struct {
		req service.YieldRequest
		st  *service.Status
		err error
	}
	jobs := make([]reqRes, 0, 8)
	for i := 0; i < 4; i++ {
		jobs = append(jobs,
			reqRes{req: service.YieldRequest{Scenario: "svc-test", N: 4000, Seed: service.Seed(uint64(100 + i))}},
			reqRes{req: service.YieldRequest{Scenario: "commonsource", N: 2048, Seed: service.Seed(uint64(200 + i))}},
		)
	}
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i].st, jobs[i].err = client.Yield(ctx, jobs[i].req)
		}(i)
	}
	wg.Wait()

	for i, jr := range jobs {
		if jr.err != nil {
			t.Fatalf("job %d (%+v): %v", i, jr.req, jr.err)
		}
		p := scenario.MustGet(jr.req.Scenario).New()
		x, _ := scenario.ReferenceDesign(p)
		want, _, err := yieldsim.ReferenceWorkers(p, x, jr.req.N, *jr.req.Seed, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if jr.st.Yield.Yield != want {
			t.Errorf("job %d (%+v): served %v, local %v", i, jr.req, jr.st.Yield.Yield, want)
		}
	}
}

// TestCancelStopsSims submits a slow job, cancels it mid-run, and asserts
// the simulation counter stops advancing once the in-flight chunks drain.
func TestCancelStopsSims(t *testing.T) {
	svc, client := newTestServer(t, service.Config{Jobs: 1, Workers: 2})
	ctx := context.Background()

	// ~100µs per evaluation × 2048-sample chunks ⇒ each chunk takes long
	// enough that the job is observably mid-flight when cancelled.
	j, cached, err := svc.SubmitYield(service.YieldRequest{Scenario: "svc-slow", N: 200000, Seed: service.Seed(3)})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("fresh request reported cached")
	}
	waitFor(t, 10*time.Second, func() bool { return svc.Sims() > 0 }, "job never started simulating")

	if _, err := client.Cancel(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return j.Status().State == service.StateCancelled },
		"job did not reach cancelled state")

	after := svc.Sims()
	if after >= 200000 {
		t.Fatalf("cancellation saved nothing: %d sims of 200000 ran", after)
	}
	time.Sleep(200 * time.Millisecond)
	if got := svc.Sims(); got != after {
		t.Errorf("counter still advancing after cancellation: %d → %d", after, got)
	}

	// A repeat of a cancelled request must re-run, not hit the cache.
	j2, cached, err := svc.SubmitYield(service.YieldRequest{Scenario: "svc-slow", N: 200000, Seed: service.Seed(3)})
	if err != nil {
		t.Fatal(err)
	}
	if cached || j2.ID == j.ID {
		t.Error("cancelled job was served from cache")
	}
	j2.Cancel()
}

// TestCancelThenResubmitBitIdentity pins the coalescing window between a
// cancellation request and the job's finalization: during it the cancelled
// job still owns its key slot, and an identical resubmission used to
// coalesce onto it — resolving the new request with the cancelled, partial
// outcome. The resubmission must instead get a fresh job whose result is
// bit-identical to the local estimator.
func TestCancelThenResubmitBitIdentity(t *testing.T) {
	svc, _ := newTestServer(t, service.Config{Jobs: 2, Workers: 2})
	req := service.YieldRequest{Scenario: "svc-slow", N: 20000, Seed: service.Seed(21)}

	j, cached, err := svc.SubmitYield(req)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("fresh request reported cached")
	}
	waitFor(t, 10*time.Second, func() bool { return svc.Sims() > 0 }, "job never started simulating")

	// Cancel and resubmit immediately: the first job is mid-chunk (each
	// 2048-sample chunk spins ~200ms), so it has not finalized and still
	// holds the key.
	j.Cancel()
	j2, cached, err := svc.SubmitYield(req)
	if err != nil {
		t.Fatal(err)
	}
	if cached || j2.ID == j.ID {
		t.Fatalf("resubmission coalesced onto the cancelled job (cached=%v, id %s vs %s)", cached, j2.ID, j.ID)
	}

	waitFor(t, 30*time.Second, func() bool { return j.Status().State == service.StateCancelled },
		"cancelled job never finalized")
	waitFor(t, 30*time.Second, func() bool { return j2.Status().State == service.StateDone },
		"resubmitted job never completed")

	st := j2.Status()
	if st.Yield == nil {
		t.Fatal("resubmitted job carries no yield result")
	}
	p := scenario.MustGet("svc-slow").New()
	x, _ := scenario.ReferenceDesign(p)
	want, _, err := yieldsim.ReferenceCtx(nil, p, x, 20000, 21, yieldsim.RefOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Yield.Yield != want {
		t.Errorf("resubmitted yield %v, local %v (stale/partial result served)", st.Yield.Yield, want)
	}

	// A third identical request now coalesces onto the completed job — the
	// cache serves the done result, never the cancelled one.
	j3, cached, err := svc.SubmitYield(req)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || j3.ID != j2.ID {
		t.Errorf("completed resubmission not served from cache (cached=%v, id %s vs %s)", cached, j3.ID, j2.ID)
	}
}

// TestSSEEvents checks the progress stream: an immediate status event and
// a final done event. The progress frames between them depend on how long
// the job runs against the frame period, so they are not counted.
func TestSSEEvents(t *testing.T) {
	svc, client := newTestServer(t, service.Config{Jobs: 1})
	_ = client

	j, _, err := svc.SubmitYield(service.YieldRequest{Scenario: "svc-slow", N: 8192, Seed: service.Seed(5)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := map[string]int{}
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			events[event]++
			lastData = "" // the event's own data line follows
		case strings.HasPrefix(line, "data: "):
			lastData = strings.TrimPrefix(line, "data: ")
		}
		if event == "done" && lastData != "" {
			break
		}
	}
	if events["status"] == 0 {
		t.Error("no initial status event")
	}
	if events["done"] == 0 {
		t.Fatal("stream ended without a done event")
	}
	if !strings.Contains(lastData, `"state":"done"`) {
		t.Errorf("final event is not a completed status: %s", lastData)
	}
}

// TestServedOptimizeMatchesLocal runs a short optimization through the
// API and compares it bit for bit with the local core run at the same
// parameters.
func TestServedOptimizeMatchesLocal(t *testing.T) {
	_, client := newTestServer(t, service.Config{Jobs: 1})
	ctx := context.Background()

	req := service.OptimizeRequest{Scenario: "svc-test", Method: "moheco", MaxSims: 60, MaxGens: 3, Seed: service.Seed(5)}
	st, err := client.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || st.Optimize == nil {
		t.Fatalf("state %s, optimize %v", st.State, st.Optimize)
	}

	p := scenario.MustGet("svc-test").New()
	opts := core.DefaultOptions(core.MethodMOHECO, 60)
	opts.Seed = 5
	opts.MaxGenerations = 3
	want, err := core.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Optimize
	if got.BestYield != want.BestYield || got.TotalSims != want.TotalSims ||
		got.Generations != want.Generations || got.Feasible != want.Feasible {
		t.Errorf("served optimize (yield %v, sims %d, gens %d) != local (yield %v, sims %d, gens %d)",
			got.BestYield, got.TotalSims, got.Generations,
			want.BestYield, want.TotalSims, want.Generations)
	}
	for i := range want.BestX {
		if got.BestX[i] != want.BestX[i] {
			t.Errorf("BestX[%d]: served %v, local %v", i, got.BestX[i], want.BestX[i])
		}
	}

	// Same optimization again: served from cache.
	again, err := client.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.ID != st.ID {
		t.Error("repeated optimize request missed the cache")
	}
}

// TestOptimizeSimCountUnderLoad pins the per-job accounting: an optimize
// job running next to other jobs must report only its own simulations
// (a shared counter would leak the neighbours' sims into TotalSims).
func TestOptimizeSimCountUnderLoad(t *testing.T) {
	svc, client := newTestServer(t, service.Config{Jobs: 3})
	ctx := context.Background()

	// Keep the server busy with slow yield traffic for the whole
	// duration of the optimization.
	bg, _, err := svc.SubmitYield(service.YieldRequest{Scenario: "svc-slow", N: 150000, Seed: service.Seed(77)})
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Cancel()

	req := service.OptimizeRequest{Scenario: "svc-test", Method: "fixed", MaxSims: 40, MaxGens: 2, Seed: service.Seed(8)}
	st, err := client.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	p := scenario.MustGet("svc-test").New()
	opts := core.DefaultOptions(core.MethodFixedBudget, 40)
	opts.Seed = 8
	opts.MaxGenerations = 2
	want, err := core.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Optimize.TotalSims != want.TotalSims {
		t.Errorf("served TotalSims %d != local %d (neighbour jobs leaked into the count)",
			st.Optimize.TotalSims, want.TotalSims)
	}
}

// TestScenariosAndHealth exercises the two metadata endpoints.
func TestScenariosAndHealth(t *testing.T) {
	_, client := newTestServer(t, service.Config{})
	ctx := context.Background()

	infos, err := client.Scenarios(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]scenario.Info{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	for _, name := range []string{"foldedcascode", "commonsource", "svc-test"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("scenario %q missing from /v1/scenarios", name)
		}
	}
	if cs := byName["commonsource"]; cs.DesignDim != 4 || cs.VarDim != 32 || len(cs.ReferenceDesign) != 4 {
		t.Errorf("commonsource info wrong: %+v", cs)
	}

	health, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v", health["status"])
	}
}

// TestBadRequests maps API misuse to client-visible errors.
func TestBadRequests(t *testing.T) {
	_, client := newTestServer(t, service.Config{})
	ctx := context.Background()

	if _, err := client.Yield(ctx, service.YieldRequest{Scenario: "no-such-scenario"}); err == nil ||
		!strings.Contains(err.Error(), "unknown problem") {
		t.Errorf("unknown scenario error = %v", err)
	}
	if _, err := client.Yield(ctx, service.YieldRequest{Scenario: "svc-test", X: []float64{1}}); err == nil ||
		!strings.Contains(err.Error(), "design values") {
		t.Errorf("bad design error = %v", err)
	}
	if _, err := client.Yield(ctx, service.YieldRequest{Scenario: "svc-test", Sampler: "sobol"}); err == nil {
		t.Error("unknown sampler accepted")
	}
	if _, err := client.Status(ctx, "j99999999"); err == nil || !strings.Contains(err.Error(), "404") &&
		!strings.Contains(err.Error(), "no such job") {
		t.Errorf("missing job error = %v", err)
	}
}

func waitFor(t *testing.T, limit time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}
