package service

import (
	"context"
	"testing"
)

// TestLeavingNodeLeasesNothing pins the coordinator side of a drain: once
// a node's leaving heartbeat is in, a lease or a completion it sent before
// that heartbeat neither brings it back into the peer table nor hands it a
// shard, and a later ordinary heartbeat readmits it.
func TestLeavingNodeLeasesNothing(t *testing.T) {
	c := testCoordinator(FleetConfig{})
	peers := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.peerStatsLocked())
	}
	c.Heartbeat(HeartbeatRequest{Node: "w1"})
	c.Heartbeat(HeartbeatRequest{Node: "w1", Leaving: true})

	c.mu.Lock()
	st := &shardState{Shard: Shard{ID: "s1"}, done: make(chan struct{})}
	c.pending = append(c.pending, st)
	c.byID[st.ID] = st
	c.mu.Unlock()

	// A cancelled context ends the long poll after its first pass.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if shards, _, _ := c.LeaseShards(ctx, "w1", 1); len(shards) != 0 {
		t.Fatalf("a departed node leased %d shard(s)", len(shards))
	}
	if err := c.CompleteShard(context.Background(), "s0", ShardResult{Node: "w1"}); err != nil {
		t.Fatal(err)
	}
	if n := peers(); n != 0 {
		t.Fatalf("coordinator sees %d peer(s) after the node left, want 0", n)
	}

	c.Heartbeat(HeartbeatRequest{Node: "w1"})
	shards, _, err := c.LeaseShards(context.Background(), "w1", 1)
	if err != nil || len(shards) != 1 || shards[0].ID != "s1" {
		t.Fatalf("readmitted node leased %v (%v), want shard s1", shards, err)
	}
	if n := peers(); n != 1 {
		t.Fatalf("coordinator sees %d peer(s) after the node came back, want 1", n)
	}
}
