package service_test

// HTTP-level observability tests: the /metrics scrape over a private
// registry through a job's lifecycle, the per-job trace endpoint and its
// summary in the terminal Status, the bounded trace ring under job churn,
// the standalone fleet-status endpoint, and the fleet-wide merged scrape
// tracking a worker through death and rejoin.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/service"
)

// newObsServer boots a service on an httptest listener like newTestServer,
// but additionally returns the base URL for raw endpoint GETs.
func newObsServer(t *testing.T, cfg service.Config) (*service.Client, string) {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return service.NewClient(ts.URL), ts.URL
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts one sample's value from a Prometheus text scrape;
// series is the full name including any label block.
func metricValue(scrape, series string) (int64, bool) {
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestMetricsEndpointJobLifecycle: a private Config.Metrics registry keeps
// the scrape isolated from other tests; one fresh job and one cached
// resubmit must land in exactly the right counters.
func TestMetricsEndpointJobLifecycle(t *testing.T) {
	client, base := newObsServer(t, service.Config{Jobs: 2, Metrics: obs.NewRegistry()})
	ctx := context.Background()

	req := service.YieldRequest{Scenario: "svc-test", N: 3000, Seed: service.Seed(5)}
	if _, err := client.Yield(ctx, req); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct != obs.PrometheusContentType {
		t.Errorf("content type %q, want %q", ct, obs.PrometheusContentType)
	}
	scrape := string(body)
	for series, want := range map[string]int64{
		`service_jobs_submitted_total{kind="yield"}`: 1,
		`service_jobs_total{state="done"}`:           1,
		"service_cache_misses_total":                 1,
		"service_cache_hits_total":                   0,
	} {
		if got, ok := metricValue(scrape, series); !ok || got != want {
			t.Errorf("%s = %d (found %v), want %d\nscrape:\n%s", series, got, ok, want, scrape)
		}
	}

	// Identical resubmit: a completed-result cache hit, no new work.
	st, err := client.Yield(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatal("resubmit was not served from cache")
	}
	_, scrape = get(t, base+"/metrics")
	if got, _ := metricValue(scrape, "service_cache_hits_total"); got != 1 {
		t.Errorf("cache hits after resubmit = %d, want 1", got)
	}
	if got, _ := metricValue(scrape, `service_jobs_submitted_total{kind="yield"}`); got != 2 {
		t.Errorf("submissions after resubmit = %d, want 2", got)
	}

	// The same registry as flat JSON on /debug/vars.
	code, vars := get(t, base+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(vars, "service_cache_hits_total") {
		t.Errorf("/debug/vars = %d %q", code, vars)
	}
}

// TestJobTraceEndpointAndSummary: a finished job serves its span record on
// /v1/jobs/{id}/trace and carries the condensed summary in its Status.
func TestJobTraceEndpointAndSummary(t *testing.T) {
	client, base := newObsServer(t, service.Config{Jobs: 1, Metrics: obs.NewRegistry()})

	st, err := client.Yield(context.Background(),
		service.YieldRequest{Scenario: "svc-test", N: 3000, Seed: service.Seed(6)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == nil {
		t.Fatal("terminal Status carries no trace summary")
	}
	// At minimum: the queued span, the run span, and the terminal event.
	if st.Trace.Spans < 3 {
		t.Errorf("trace summary spans = %d, want >= 3", st.Trace.Spans)
	}

	code, body := get(t, base+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace endpoint = %d %q", code, body)
	}
	for _, span := range []string{`"queued"`, `"run"`, `"done"`} {
		if !strings.Contains(body, span) {
			t.Errorf("trace %q misses span %s", body, span)
		}
	}

	if code, _ := get(t, base+"/v1/jobs/no-such-job/trace"); code != http.StatusNotFound {
		t.Errorf("unknown job trace = %d, want 404", code)
	}
}

// TestJobTraceRetainedWithJob: a job's trace lives on the job, so it
// answers exactly while the job's status does. With CacheSize 2, a third
// completed job evicts the least recently used one, status and trace
// together.
func TestJobTraceRetainedWithJob(t *testing.T) {
	client, base := newObsServer(t, service.Config{Jobs: 1, CacheSize: 2, Metrics: obs.NewRegistry()})
	ctx := context.Background()
	yield := func(seed uint64) string {
		st, err := client.Yield(ctx, service.YieldRequest{Scenario: "svc-test", N: 3000, Seed: service.Seed(seed)})
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	answers := func(id string, want int) {
		t.Helper()
		if code, _ := get(t, base+"/v1/jobs/"+id); code != want {
			t.Errorf("job %s status = %d, want %d", id, code, want)
		}
		if code, _ := get(t, base+"/v1/jobs/"+id+"/trace"); code != want {
			t.Errorf("job %s trace = %d, want %d", id, code, want)
		}
	}

	first, second := yield(1), yield(2)
	// Looking the first job up before the second leaves the first least
	// recently used.
	answers(first, http.StatusOK)
	answers(second, http.StatusOK)
	third := yield(3)
	answers(first, http.StatusNotFound)
	answers(second, http.StatusOK)
	answers(third, http.StatusOK)
}

// TestFleetStatusEndpoint: the standalone fleet-status route answers on a
// coordinator with its role and (once a worker heartbeats) per-peer stats.
func TestFleetStatusEndpoint(t *testing.T) {
	_, base := newObsServer(t, service.Config{
		Metrics: obs.NewRegistry(),
		Fleet:   service.FleetConfig{Coordinator: true, Node: "coord", Heartbeat: 25 * time.Millisecond},
	})

	code, body := get(t, base+"/v1/fleet/status")
	if code != http.StatusOK || !strings.Contains(body, `"role": "coordinator"`) {
		t.Fatalf("fleet status = %d %q", code, body)
	}

	worker := service.New(service.Config{
		Metrics: obs.NewRegistry(),
		Fleet:   service.FleetConfig{Join: base, Node: "w1", Heartbeat: 25 * time.Millisecond},
	})
	defer worker.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body = get(t, base+"/v1/fleet/status")
		if strings.Contains(body, `"node": "w1"`) && strings.Contains(body, `"sims_per_sec"`) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never appeared in peer_stats: %q", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetMergedScrapeDeathAndRejoin: a worker's private registry rides
// its heartbeats into the coordinator's ?fleet=1 scrape, disappears when
// the worker dies, and a replacement's numbers take its place — end to end
// over HTTP, not via coordinator internals.
func TestFleetMergedScrapeDeathAndRejoin(t *testing.T) {
	_, base := newObsServer(t, service.Config{
		Metrics: obs.NewRegistry(),
		Fleet:   service.FleetConfig{Coordinator: true, Node: "coord", Heartbeat: 25 * time.Millisecond},
	})

	newMarkedWorker := func(node string, marker int64) *service.Server {
		reg := obs.NewRegistry()
		reg.Counter("obs_test_marker_total").Add(marker)
		return service.New(service.Config{
			Metrics: reg,
			Fleet:   service.FleetConfig{Join: base, Node: node, Heartbeat: 25 * time.Millisecond},
		})
	}
	waitMarker := func(want int64, about string) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, scrape := get(t, base+"/metrics?fleet=1")
			got, ok := metricValue(scrape, "obs_test_marker_total")
			if want == 0 && !ok {
				return // series absent entirely also counts as gone
			}
			if ok && got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: fleet marker = %d (found %v), want %d", about, got, ok, want)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	w1 := newMarkedWorker("w1", 5)
	waitMarker(5, "after w1 joined")

	// Death: close the worker; its snapshot must leave the merge (either by
	// the goodbye heartbeat or by the liveness window lapsing).
	w1.Close()
	waitMarker(0, "after w1 died")

	// Rejoin: a replacement's numbers appear, not the dead node's.
	w2 := newMarkedWorker("w2", 7)
	defer w2.Close()
	waitMarker(7, "after w2 joined")
}

// TestJobStateCountedBeforeWaitReturns: by the time Wait returns, the
// job's terminal state is in service_jobs_total, on every one of many
// jobs — a client that waits for its job and then scrapes reads it.
func TestJobStateCountedBeforeWaitReturns(t *testing.T) {
	reg := obs.NewRegistry()
	svc := service.New(service.Config{Jobs: 2, Metrics: reg})
	t.Cleanup(svc.Close)
	done := reg.Counter("service_jobs_total", "state", "done")
	for i := 0; i < 300; i++ {
		j, _, err := svc.SubmitYield(service.YieldRequest{Scenario: "svc-test", N: 64, Seed: service.Seed(uint64(1000 + i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := done.Value(); got != int64(i+1) {
			t.Fatalf("job %d: service_jobs_total{state=\"done\"} = %d right after Wait, want %d", i, got, i+1)
		}
	}
}
