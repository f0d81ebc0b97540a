package service

// Coordinator-side observability unit tests: the heartbeat-piggybacked
// snapshot merge gated by the peer liveness window, and the per-peer
// throughput/straggler table. These poke unexported coordinator state
// directly, so timing is fully synthetic — no sleeps against real
// heartbeat goroutines.

import (
	"testing"
	"time"

	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/yieldsim"
)

func testCoordinator(cfg FleetConfig) *Coordinator {
	return newCoordinator(cfg, Hooks{}, "coord", wallClock{}, &yieldsim.Counter{}, nil,
		newServerMetrics(obs.NewRegistry()), newLRUCache[[]int](shardCacheSize))
}

func markerSnap(v int64) *obs.Snapshot {
	return &obs.Snapshot{Counters: map[string]int64{"marker_total": v}}
}

// TestMergedSnapshotPeerWindow: a peer's piggybacked snapshot joins the
// fleet-wide merge while the peer is live, drops out once its liveness
// window lapses (death), and rejoins with fresh numbers on the next
// heartbeat (rejoin). The local snapshot always contributes.
func TestMergedSnapshotPeerWindow(t *testing.T) {
	// Heartbeat 25ms → peerWindow 100ms, waited out in virtual time.
	c := testCoordinator(FleetConfig{Heartbeat: 25 * time.Millisecond})
	clk := newFakeClock()
	c.clk = clk

	c.Heartbeat(HeartbeatRequest{Node: "w1", Sims: 100, Metrics: markerSnap(5)})
	c.Heartbeat(HeartbeatRequest{Node: "w2", Sims: 50, Metrics: markerSnap(7)})
	if got := c.mergedSnapshot(*markerSnap(1)).Counters["marker_total"]; got != 13 {
		t.Fatalf("merged marker with two live peers = %d, want 13 (1+5+7)", got)
	}

	// Death: neither peer heartbeats past the window; only local remains.
	clk.Advance(150 * time.Millisecond)
	if got := c.mergedSnapshot(*markerSnap(1)).Counters["marker_total"]; got != 1 {
		t.Fatalf("merged marker after peer window lapsed = %d, want 1 (local only)", got)
	}

	// Rejoin: one heartbeat restores the peer with its new snapshot.
	c.Heartbeat(HeartbeatRequest{Node: "w1", Sims: 150, Metrics: markerSnap(6)})
	if got := c.mergedSnapshot(*markerSnap(1)).Counters["marker_total"]; got != 7 {
		t.Fatalf("merged marker after rejoin = %d, want 7 (1+6)", got)
	}

	// A graceful leave drops the peer immediately, window or not.
	c.Heartbeat(HeartbeatRequest{Node: "w1", Leaving: true})
	if got := c.mergedSnapshot(*markerSnap(1)).Counters["marker_total"]; got != 1 {
		t.Fatalf("merged marker after leave = %d, want 1", got)
	}
}

// TestHeartbeatSimsHistory: successive heartbeats build the two-point
// cumulative-sims history the throughput estimate reads; a repeated count
// does not collapse the interval.
func TestHeartbeatSimsHistory(t *testing.T) {
	c := testCoordinator(FleetConfig{})
	c.Heartbeat(HeartbeatRequest{Node: "w1", Sims: 100})
	c.Heartbeat(HeartbeatRequest{Node: "w1", Sims: 100}) // no movement: keep history
	c.Heartbeat(HeartbeatRequest{Node: "w1", Sims: 300})

	c.mu.Lock()
	p := c.peers["w1"]
	c.mu.Unlock()
	if p.sims != 300 || p.prevSims != 100 {
		t.Fatalf("sims history = (%d, prev %d), want (300, prev 100)", p.sims, p.prevSims)
	}
	if p.rate() <= 0 {
		t.Fatalf("rate = %v, want > 0 after two moving samples", p.rate())
	}
}

// TestPeerStatsStragglers: the PeerStat table is sorted by node, carries
// the last-interval rate, and flags only peers under half the median
// positive rate. Peer history is injected directly so the rates are exact.
func TestPeerStatsStragglers(t *testing.T) {
	c := testCoordinator(FleetConfig{})
	now := time.Now()
	peer := func(sims int64) peerInfo {
		return peerInfo{
			seen: now,
			sims: sims, simsAt: now,
			prevSims: 0, prevSimsAt: now.Add(-time.Second),
		}
	}
	c.mu.Lock()
	c.peers["b-fast"] = peer(1000)
	c.peers["c-mid"] = peer(900)
	c.peers["a-slow"] = peer(100)
	stats := c.peerStatsLocked()
	c.mu.Unlock()

	if len(stats) != 3 {
		t.Fatalf("got %d peer stats, want 3", len(stats))
	}
	for i, want := range []string{"a-slow", "b-fast", "c-mid"} {
		if stats[i].Node != want {
			t.Fatalf("stats[%d].Node = %s, want %s (sorted)", i, stats[i].Node, want)
		}
	}
	// dt is exactly 1s, so the rates equal the sims deltas.
	if stats[1].SimsPerSec != 1000 || stats[0].SimsPerSec != 100 {
		t.Fatalf("rates = %v/%v, want 1000/100", stats[1].SimsPerSec, stats[0].SimsPerSec)
	}
	// Median of {100, 900, 1000} is 900; only 100 < 450 straggles.
	if !stats[0].Straggler || stats[1].Straggler || stats[2].Straggler {
		t.Fatalf("straggler flags = %v/%v/%v, want true/false/false",
			stats[0].Straggler, stats[1].Straggler, stats[2].Straggler)
	}

	// A lone rate-bearing peer has no fleet to straggle behind.
	c.mu.Lock()
	delete(c.peers, "b-fast")
	delete(c.peers, "c-mid")
	solo := c.peerStatsLocked()
	c.mu.Unlock()
	if len(solo) != 1 || solo[0].Straggler {
		t.Fatalf("solo peer stats = %+v, want one non-straggler", solo)
	}
}

// TestPeerLivenessOneWindow: /healthz's peer count, the PeerStat table and
// the electorate apply one liveness rule. A peer last seen five heartbeats
// ago is absent from all three; one seen a heartbeat ago is in all three.
func TestPeerLivenessOneWindow(t *testing.T) {
	s := New(Config{
		Metrics: obs.NewRegistry(),
		Fleet:   FleetConfig{Coordinator: true, Node: "coord", NoSelfWork: true},
	})
	t.Cleanup(s.Close)
	c := s.coord
	now := time.Now()
	c.mu.Lock()
	c.peers["stale"] = peerInfo{url: "http://stale", seen: now.Add(-5 * defaultHeartbeat)}
	c.peers["fresh"] = peerInfo{url: "http://fresh", seen: now.Add(-defaultHeartbeat)}
	c.mu.Unlock()

	fs := s.Fleet()
	if fs.Peers != 1 {
		t.Errorf("Peers = %d, want 1 (only the peer seen a heartbeat ago)", fs.Peers)
	}
	if len(fs.PeerStats) != 1 || fs.PeerStats[0].Node != "fresh" {
		t.Errorf("PeerStats = %+v, want only fresh", fs.PeerStats)
	}
	if live := c.livePeers(); len(live) != 1 || live[0].Node != "fresh" {
		t.Errorf("electorate = %+v, want only fresh", live)
	}
}
