package service

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"

	"github.com/eda-go/moheco/internal/obs"
)

// TestRoleFollowsCoordinator pins what a node reports about its role, which
// follows from whether it schedules fleet shards and whether it joined a
// fleet: the fleet role, the default node name and /healthz's backend, for
// each configuration and for a worker after its promotion.
func TestRoleFollowsCoordinator(t *testing.T) {
	health := func(s *Server) (role, node, backend string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var h struct {
			Backend string
			Fleet   FleetStatus
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("healthz: %v: %s", err, rec.Body)
		}
		return h.Fleet.Role, h.Fleet.Node, h.Backend
	}
	check := func(s *Server, role, node, backend string) {
		t.Helper()
		if r, n, b := health(s); r != role || n != node || b != backend {
			t.Fatalf("healthz role %q, node %q, backend %q; want %q, %q, %q", r, n, b, role, node, backend)
		}
		if r := s.Fleet().Role; r != role {
			t.Fatalf("Fleet().Role = %q, want %q", r, role)
		}
	}
	newServer := func(fleet FleetConfig) *Server {
		s := New(Config{Jobs: 1, Workers: 1, Metrics: obs.NewRegistry(), Fleet: fleet})
		t.Cleanup(s.Close)
		return s
	}
	pid := os.Getpid()
	check(newServer(FleetConfig{}), "single", fmt.Sprintf("single-%d", pid), "local")
	check(newServer(FleetConfig{Coordinator: true}), "coordinator", fmt.Sprintf("coordinator-%d", pid), "coordinator")
	// A worker that never reached its coordinator keeps knocking and never
	// elects itself, so its role is stable until the test promotes it.
	w := newServer(FleetConfig{Join: "http://127.0.0.1:1"})
	node := fmt.Sprintf("worker-%d", pid)
	check(w, "worker", node, "local")
	w.promote()
	check(w, "coordinator", node, "coordinator")
}
