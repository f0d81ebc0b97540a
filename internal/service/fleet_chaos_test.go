package service_test

// Chaos scenarios for the fleet's failure model, all in-process and all
// under -race. Faults come exclusively from internal/chaos through the two
// seams production code exposes anyway — Config.Transport (per-endpoint
// drop/delay schedules) and Config.Hooks (kill-at-shard-N triggers) — so
// the same seed replays the same fault sequence. The assertions lean on
// the fleet's determinism contract: fixed seed ⇒ bit-identical float64, so
// any divergence under injected faults is a bug, not noise.

import (
	"context"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/eda-go/moheco/internal/chaos"
	"github.com/eda-go/moheco/internal/service"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// fleetNode is one in-process fleet member: a service on a real TCP
// listener (so peers can dial it by URL) plus its private sim counter.
type fleetNode struct {
	svc     *service.Server
	ts      *httptest.Server
	url     string
	counter *yieldsim.Counter
	killed  sync.Once
}

// startFleetNode boots a service on a pre-created listener so the
// advertise URL exists before the server does — a worker must know the URL
// peers will reach it at to announce it in heartbeats.
func startFleetNode(t *testing.T, cfg service.Config, transport http.RoundTripper) *fleetNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Counter == nil {
		cfg.Counter = &yieldsim.Counter{}
	}
	if cfg.EventInterval == 0 {
		cfg.EventInterval = 20 * time.Millisecond
	}
	if testing.Verbose() {
		cfg.Log = log.New(os.Stderr, "["+cfg.Fleet.Node+"] ", log.Lmicroseconds)
	}
	cfg.Transport = transport
	if cfg.Fleet.Join != "" && cfg.Fleet.AdvertiseURL == "" {
		cfg.Fleet.AdvertiseURL = "http://" + ln.Addr().String()
	}
	svc := service.New(cfg)
	ts := httptest.NewUnstartedServer(svc.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	n := &fleetNode{svc: svc, ts: ts, url: ts.URL, counter: cfg.Counter}
	t.Cleanup(n.kill)
	return n
}

// kill simulates SIGKILL: open connections die, the port stops answering,
// and nothing is flushed or handed over. The service is torn down in the
// background — a genuinely dead process does not get to say goodbye
// either, and the test must not wait on it.
func (n *fleetNode) kill() {
	n.killed.Do(func() {
		n.ts.CloseClientConnections()
		go n.ts.Close()
		go n.svc.Close()
	})
}

// awaitPeers polls a coordinator's fleet status until it reports the
// expected live-peer count — the fleet is not "formed" until every worker
// has heartbeated in, and a kill before first contact is a different
// scenario (workers never promote for a coordinator they never met).
func awaitPeers(t *testing.T, n *fleetNode, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n.svc.Fleet().Peers == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d peers (have %d)", want, n.svc.Fleet().Peers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fleetWorkerCfg is the common worker shape of these tests: fast
// heartbeats so liveness plays out in milliseconds, electable (advertise
// URL filled in by startFleetNode), two local sim goroutines.
func fleetWorkerCfg(join, node string) service.Config {
	return service.Config{
		Jobs:    2,
		Workers: 2,
		Fleet: service.FleetConfig{
			Join:      join,
			Node:      node,
			Heartbeat: 50 * time.Millisecond,
			DeadAfter: 3,
			Lease:     700 * time.Millisecond,
		},
	}
}

// TestChaosCoordinatorKillHandOff is the acceptance scenario: the
// coordinator is killed (deterministically, at the 4th shard lease of the
// schedule) in the middle of a sharded job. The surviving worker with the
// lowest node name must detect the death by missed heartbeats, promote
// itself, rebuild the shard plan from the replicated job spec (warm where
// shard counts were replicated), and finish the job — with float64 bits
// identical to an uninterrupted single-node run. The submitting client
// rides through the hand-off on its resubmit-and-coalesce failover path.
func TestChaosCoordinatorKillHandOff(t *testing.T) {
	const n, seed = 24576, 5 // 12 shards of 2048
	want := localYield(t, "svc-slow", n, seed)

	killCh := make(chan struct{})
	kill := chaos.At(4, func() { close(killCh) })
	coord := startFleetNode(t, service.Config{
		Jobs: 2,
		Fleet: service.FleetConfig{
			Coordinator:  true,
			Node:         "z-coord", // sorts last: never the election favorite
			NoSelfWork:   true,
			Heartbeat:    50 * time.Millisecond,
			Lease:        700 * time.Millisecond,
			ShardSamples: 2048,
		},
		Hooks: service.Hooks{ShardLeased: func(string, service.Shard) { kill.Hit() }},
	}, nil)
	go func() { <-killCh; coord.kill() }()

	wa := startFleetNode(t, fleetWorkerCfg(coord.url, "a-worker"), nil)
	wb := startFleetNode(t, fleetWorkerCfg(coord.url, "b-worker"), nil)
	awaitPeers(t, coord, 2)

	client := service.NewClient(coord.url + "," + wa.url + "," + wb.url)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	st, err := client.Yield(ctx, service.YieldRequest{Scenario: "svc-slow", N: n, Seed: service.Seed(seed)})
	if err != nil {
		t.Fatalf("job did not survive the coordinator kill: %v", err)
	}
	if st.State != service.StateDone || st.Yield == nil {
		t.Fatalf("state %s, yield %v", st.State, st.Yield)
	}
	if st.Yield.Yield != want {
		t.Errorf("post-hand-off yield %v, single-node %v — hand-off broke bit-identity", st.Yield.Yield, want)
	}
	if !kill.Fired() {
		t.Fatal("kill trigger never fired — the job ran without the fault")
	}
	// The job must have completed under the promoted worker, not by luck.
	if role := wa.svc.Fleet().Role; role != "coordinator" {
		t.Errorf("lowest-named survivor's role = %q, want coordinator", role)
	}
	if role := wb.svc.Fleet().Role; role != "worker" {
		t.Errorf("higher-ranked survivor's role = %q, want worker (no split brain)", role)
	}
	if a, b := wa.counter.Total(), wb.counter.Total(); a == 0 || b == 0 {
		t.Errorf("hand-off did not re-form the fleet: a-worker %d sims, b-worker %d", a, b)
	}
}

// TestChaosReplicatedResultSurvivesCoordinatorDeath: a finished job's
// result is pushed to every peer, so killing the coordinator afterwards
// loses nothing — a peer serves the identical result from its replica with
// zero re-simulation, promoted or not.
func TestChaosReplicatedResultSurvivesCoordinatorDeath(t *testing.T) {
	const n, seed = 8192, 9
	coord := startFleetNode(t, service.Config{
		Jobs: 2,
		Fleet: service.FleetConfig{
			Coordinator:  true,
			Node:         "z-coord",
			NoSelfWork:   true,
			Heartbeat:    50 * time.Millisecond,
			Lease:        700 * time.Millisecond,
			ShardSamples: 2048,
		},
	}, nil)
	wa := startFleetNode(t, fleetWorkerCfg(coord.url, "a-worker"), nil)
	awaitPeers(t, coord, 1)

	req := service.YieldRequest{Scenario: "svc-test", N: n, Seed: service.Seed(seed)}
	ctx := context.Background()
	first, err := service.NewClient(coord.url).Yield(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Replication is async best-effort; wait for the push to land.
	deadline := time.Now().Add(10 * time.Second)
	for wa.svc.Fleet().ReplResults == 0 {
		if time.Now().After(deadline) {
			t.Fatal("finished result never replicated to the peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	coord.kill()

	before := wa.counter.Total()
	second, err := service.NewClient(wa.url).Yield(ctx, req)
	if err != nil {
		t.Fatalf("replica holder could not serve the result: %v", err)
	}
	if second.Yield == nil || second.Yield.Yield != first.Yield.Yield {
		t.Errorf("replicated result %v, original %v", second.Yield, first.Yield)
	}
	if got := wa.counter.Total(); got != before {
		t.Errorf("replica hit cost %d simulations, want 0", got-before)
	}
}

// TestChaosPartitionExactAccounting is the contention scenario: one
// worker's completion reports (and only those) are severed from its 2nd
// shard onward — it keeps leasing and simulating, but the coordinator
// never hears back, so every one of its leases expires and is re-dispatched
// to the three live workers racing for it. Exact fleet-wide accounting
// must hold: the coordinator counts precisely n simulations, because work
// that was never reported is re-dispatched and counted exactly once when a
// live node reports it — and the merge is bit-identical, because
// re-dispatch changes who computes a chunk, never what it computes.
//
// The live workers join only once the coordinator has handed out its
// second lease. Until then the severed worker is the fleet, so both leases
// are its own, and it reports both: the second report is the first one the
// rule drops, so the partition happens on every run rather than only when
// the severed worker wins a second shard from the live ones.
func TestChaosPartitionExactAccounting(t *testing.T) {
	const n, seed = 16384, 13 // 8 shards of 2048
	want := localYield(t, "svc-test", n, seed)

	in := chaos.New(99, chaos.Rule{Name: "sever-complete", Path: "/complete", After: 1, Act: chaos.Drop})
	secondLease := make(chan struct{})
	gate := chaos.At(2, func() { close(secondLease) })
	coord := startFleetNode(t, service.Config{
		Jobs: 2,
		Fleet: service.FleetConfig{
			Coordinator:  true,
			Node:         "z-coord",
			NoSelfWork:   true,
			Heartbeat:    50 * time.Millisecond,
			Lease:        400 * time.Millisecond,
			ShardSamples: 2048,
		},
		Hooks: service.Hooks{ShardLeased: func(string, service.Shard) { gate.Hit() }},
	}, nil)
	bad := startFleetNode(t, fleetWorkerCfg(coord.url, "p-bad"), in.Transport(nil))
	awaitPeers(t, coord, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	type result struct {
		st  *service.Status
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := service.NewClient(coord.url).Yield(ctx, service.YieldRequest{Scenario: "svc-test", N: n, Seed: service.Seed(seed)})
		done <- result{st, err}
	}()
	select {
	case <-secondLease:
	case r := <-done:
		t.Fatalf("job ended before the severed worker's second lease: %+v, %v", r.st, r.err)
	}
	startFleetNode(t, fleetWorkerCfg(coord.url, "a-live"), nil)
	startFleetNode(t, fleetWorkerCfg(coord.url, "b-live"), nil)
	startFleetNode(t, fleetWorkerCfg(coord.url, "c-live"), nil)

	r := <-done
	st, err := r.st, r.err
	if err != nil {
		t.Fatal(err)
	}
	if st.Yield == nil || st.Yield.Yield != want {
		t.Errorf("yield under partition %v, single-node %v", st.Yield, want)
	}
	if got := coord.counter.Total(); got != n {
		t.Errorf("coordinator counted %d fleet sims, want exactly %d (unreported work must not count)", got, n)
	}
	dropped := 0
	for _, e := range in.Events() {
		if e.Rule == "sever-complete" && e.Act == chaos.Drop {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("the sever rule never fired — the partition was not exercised")
	}
	if bad.counter.Total() == 0 {
		t.Error("partitioned worker did no work — the contention was not exercised")
	}
}

// TestChaosSlowPeerIdenticalMerge: one worker's completion reports are
// delayed past the lease window. Whichever way each race lands — the late
// report arrives while its shard is still live (merged as-is), or after
// re-dispatch already completed it (counted, discarded as stale) — the
// merged result must be bit-identical, because a duplicate completion
// carries byte-identical counts by construction. Fleet-wide accounting is
// >= n here, never less: burned duplicate work is real work.
func TestChaosSlowPeerIdenticalMerge(t *testing.T) {
	const n, seed = 8192, 21 // 4 shards of 2048
	want := localYield(t, "svc-test", n, seed)

	in := chaos.New(7, chaos.Rule{Name: "slow-complete", Path: "/complete", Act: chaos.Delay, Delay: 600 * time.Millisecond})
	coord := startFleetNode(t, service.Config{
		Jobs: 2,
		Fleet: service.FleetConfig{
			Coordinator:  true,
			Node:         "z-coord",
			NoSelfWork:   true,
			Heartbeat:    50 * time.Millisecond,
			Lease:        400 * time.Millisecond,
			ShardSamples: 2048,
		},
	}, nil)
	slow := startFleetNode(t, fleetWorkerCfg(coord.url, "s-slow"), in.Transport(nil))
	startFleetNode(t, fleetWorkerCfg(coord.url, "a-fast"), nil)
	awaitPeers(t, coord, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	st, err := service.NewClient(coord.url).Yield(ctx, service.YieldRequest{Scenario: "svc-test", N: n, Seed: service.Seed(seed)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Yield == nil || st.Yield.Yield != want {
		t.Errorf("yield with slow peer %v, single-node %v", st.Yield, want)
	}
	if got := coord.counter.Total(); got < n {
		t.Errorf("coordinator counted %d fleet sims, want >= %d", got, n)
	}
	if slow.counter.Total() == 0 {
		t.Error("slow worker did no work — the delay path was not exercised")
	}
	delayed := 0
	for _, e := range in.Events() {
		if e.Rule == "slow-complete" && e.Act == chaos.Delay {
			delayed++
		}
	}
	if delayed == 0 {
		t.Error("the delay rule never fired")
	}
}

// TestChaosWorkerKillRedispatch severs a worker completely (every outbound
// request drops from its 3rd shard lease onward — the transport view of
// SIGKILL) while it holds a lease. The lease must expire and re-dispatch
// to the survivor, and the merged result must be bit-identical: a lost
// node delays the answer, never changes it.
func TestChaosWorkerKillRedispatch(t *testing.T) {
	const n, seed = 16384, 3 // 8 shards of 2048
	want := localYield(t, "svc-slow", n, seed)

	in := chaos.New(17, chaos.Rule{Name: "kill-victim", Path: "/v1/shards/", After: 3, Act: chaos.Drop})
	coord := startFleetNode(t, service.Config{
		Jobs: 2,
		Fleet: service.FleetConfig{
			Coordinator:  true,
			Node:         "z-coord",
			NoSelfWork:   true,
			Heartbeat:    50 * time.Millisecond,
			Lease:        400 * time.Millisecond,
			ShardSamples: 2048,
		},
	}, nil)
	startFleetNode(t, fleetWorkerCfg(coord.url, "v-victim"), in.Transport(nil))
	startFleetNode(t, fleetWorkerCfg(coord.url, "a-survivor"), nil)
	awaitPeers(t, coord, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	st, err := service.NewClient(coord.url).Yield(ctx, service.YieldRequest{Scenario: "svc-slow", N: n, Seed: service.Seed(seed)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Yield == nil || st.Yield.Yield != want {
		t.Errorf("yield after worker kill %v, single-node %v", st.Yield, want)
	}
	if len(in.Events()) == 0 {
		t.Error("the kill rule never fired")
	}
}

// TestDrainDeregisters: Drain must stop the worker's leasing, survive the
// wait for in-flight shards, and deregister the node so the coordinator's
// peer table drops it immediately — a drained node must not look like a
// crash (it would sit in the table until the liveness window expired).
func TestDrainDeregisters(t *testing.T) {
	coord := startFleetNode(t, service.Config{
		Jobs: 2,
		Fleet: service.FleetConfig{
			Coordinator:  true,
			Node:         "z-coord",
			Heartbeat:    50 * time.Millisecond,
			ShardSamples: 2048,
		},
	}, nil)
	wa := startFleetNode(t, fleetWorkerCfg(coord.url, "a-worker"), nil)
	awaitPeers(t, coord, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := wa.svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if peers := coord.svc.Fleet().Peers; peers != 0 {
		t.Errorf("coordinator still sees %d peer(s) right after drain — deregistration must be immediate", peers)
	}

	// The drained worker must not lease again: a post-drain job completes
	// entirely on the coordinator's self-work, with the worker's counter
	// untouched.
	st, err := service.NewClient(coord.url).Yield(context.Background(), service.YieldRequest{
		Scenario: "svc-test", N: 4096, Seed: service.Seed(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("post-drain job state %s", st.State)
	}
	if got := wa.counter.Total(); got != 0 {
		t.Errorf("drained worker simulated %d samples after drain, want 0", got)
	}
}
