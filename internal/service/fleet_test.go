package service_test

import (
	"context"
	"testing"
	"time"

	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/service"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// localYield computes the single-node reference value a fleet result must
// match bit for bit.
func localYield(t *testing.T, scenarioName string, n int, seed uint64) float64 {
	t.Helper()
	p := scenario.MustGet(scenarioName).New()
	x, ok := scenario.ReferenceDesign(p)
	if !ok {
		t.Fatalf("scenario %s has no reference design", scenarioName)
	}
	want, _, err := yieldsim.ReferenceCtx(nil, p, x, n, seed, yieldsim.RefOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// newWorker starts a server that joins the coordinator at joinURL as a
// fleet worker.
func newWorker(t *testing.T, joinURL, node string, workers int) *service.Server {
	t.Helper()
	svc := service.New(service.Config{
		Workers: workers,
		Fleet:   service.FleetConfig{Join: joinURL, Node: node},
	})
	t.Cleanup(svc.Close)
	return svc
}

// TestCoordinatorSelfWorkBitIdentical: a one-process coordinator (its
// in-process shard runner is the whole fleet) serves the bit-identical
// estimate of the single-node path, and /healthz reports its fleet role.
func TestCoordinatorSelfWorkBitIdentical(t *testing.T) {
	svc, client := newTestServer(t, service.Config{
		Jobs:  2,
		Fleet: service.FleetConfig{Coordinator: true, Node: "coord"},
	})
	ctx := context.Background()

	const n, seed = 50000, 42
	st, err := client.Yield(ctx, service.YieldRequest{Scenario: "svc-test", N: n, Seed: service.Seed(seed)})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || st.Yield == nil {
		t.Fatalf("state %s, yield %v", st.State, st.Yield)
	}
	want := localYield(t, "svc-test", n, seed)
	if st.Yield.Yield != want {
		t.Errorf("coordinator yield %v, single-node %v", st.Yield.Yield, want)
	}
	if got := svc.Sims(); got != n {
		t.Errorf("coordinator spent %d sims, want %d", got, n)
	}

	health, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fleet, _ := health["fleet"].(map[string]any)
	if fleet["role"] != "coordinator" || fleet["node"] != "coord" {
		t.Errorf("healthz fleet = %v, want role coordinator node coord", fleet)
	}
	if health["backend"] != "coordinator" {
		t.Errorf("healthz backend = %v, want coordinator", health["backend"])
	}
	if v, ok := health["version"].(string); !ok || v == "" {
		t.Errorf("healthz version missing: %v", health["version"])
	}
}

// TestFleetShardedBitIdentical is the acceptance contract: a dispatch-only
// coordinator with two remote workers produces the bit-identical estimate
// of the single-node run, both workers contribute, and the fleet-wide sim
// count is exact.
func TestFleetShardedBitIdentical(t *testing.T) {
	coord, client := newTestServer(t, service.Config{
		Jobs: 2,
		Fleet: service.FleetConfig{
			Coordinator:  true,
			Node:         "coord",
			NoSelfWork:   true,
			ShardSamples: 4096,
		},
	})
	coordURL := client.Endpoints()
	workerA := newWorker(t, coordURL, "worker-a", 2)
	workerB := newWorker(t, coordURL, "worker-b", 2)
	ctx := context.Background()

	// svc-slow's per-evaluation delay keeps each shard in flight long
	// enough that both workers demonstrably share the job.
	const n, seed = 20000, 7
	st, err := client.Yield(ctx, service.YieldRequest{Scenario: "svc-slow", N: n, Seed: service.Seed(seed)})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || st.Yield == nil {
		t.Fatalf("state %s, yield %v", st.State, st.Yield)
	}
	want := localYield(t, "svc-slow", n, seed)
	if st.Yield.Yield != want {
		t.Errorf("sharded yield %v, single-node %v — fleet broke bit-identity", st.Yield.Yield, want)
	}
	if a, b := workerA.Sims(), workerB.Sims(); a == 0 || b == 0 {
		t.Errorf("work not distributed: worker-a %d sims, worker-b %d", a, b)
	} else if a+b != n {
		t.Errorf("workers spent %d sims total, want %d", a+b, n)
	}
	if got := coord.Sims(); got != n {
		t.Errorf("coordinator counted %d fleet sims, want %d", got, n)
	}

	health, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fleet, _ := health["fleet"].(map[string]any)
	if peers, _ := fleet["peers"].(float64); peers != 2 {
		t.Errorf("healthz peers = %v, want 2", fleet["peers"])
	}
}

// TestFleetWorkerDeathRedispatch kills a worker mid-job: its expired
// leases must be re-dispatched to a surviving worker and the merged result
// must still be bit-identical — a lost node delays the answer, never
// changes it.
func TestFleetWorkerDeathRedispatch(t *testing.T) {
	_, client := newTestServer(t, service.Config{
		Jobs: 2,
		Fleet: service.FleetConfig{
			Coordinator:  true,
			Node:         "coord",
			NoSelfWork:   true,
			ShardSamples: 8192,
			Lease:        400 * time.Millisecond,
		},
	})
	coordURL := client.Endpoints()
	victim := newWorker(t, coordURL, "victim", 2)

	const n, seed = 16384, 3
	ctx := context.Background()
	done := make(chan struct{})
	var st *service.Status
	var yieldErr error
	go func() {
		defer close(done)
		st, yieldErr = client.Yield(ctx, service.YieldRequest{Scenario: "svc-slow", N: n, Seed: service.Seed(seed)})
	}()

	// Let the victim lease its first shard, then kill it mid-execution.
	time.Sleep(150 * time.Millisecond)
	victim.Close()
	newWorker(t, coordURL, "survivor", 2)

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("job never completed after worker death")
	}
	if yieldErr != nil {
		t.Fatal(yieldErr)
	}
	if st.State != service.StateDone || st.Yield == nil {
		t.Fatalf("state %s, yield %v", st.State, st.Yield)
	}
	if want := localYield(t, "svc-slow", n, seed); st.Yield.Yield != want {
		t.Errorf("post-redispatch yield %v, single-node %v", st.Yield.Yield, want)
	}
}

// TestWarmShardReuse: shard keys cover sample ranges, not total counts, so
// a larger estimate sharing a prefix of full chunks with an earlier one
// only pays for the new shards.
func TestWarmShardReuse(t *testing.T) {
	svc, client := newTestServer(t, service.Config{
		Jobs:  2,
		Fleet: service.FleetConfig{Coordinator: true, ShardSamples: 8192},
	})
	ctx := context.Background()
	const seed = 11

	// 16384 samples = 2 full 8192-sample shards.
	first, err := client.Yield(ctx, service.YieldRequest{Scenario: "svc-test", N: 16384, Seed: service.Seed(seed)})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Sims(); got != 16384 {
		t.Fatalf("first estimate cost %d sims, want 16384", got)
	}

	// 24576 samples = the same 2 shards plus 1 new one: only 8192 fresh
	// sims despite a different job-level key (different n).
	second, err := client.Yield(ctx, service.YieldRequest{Scenario: "svc-test", N: 24576, Seed: service.Seed(seed)})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Error("different-n request wrongly coalesced at job level")
	}
	if got := svc.Sims(); got != 16384+8192 {
		t.Errorf("second estimate cost %d new sims, want 8192 (warm shards reused)", svc.Sims()-16384)
	}
	for _, tc := range []struct {
		st *service.Status
		n  int
	}{{first, 16384}, {second, 24576}} {
		if want := localYield(t, "svc-test", tc.n, seed); tc.st.Yield.Yield != want {
			t.Errorf("n=%d: yield %v, single-node %v", tc.n, tc.st.Yield.Yield, want)
		}
	}
}
