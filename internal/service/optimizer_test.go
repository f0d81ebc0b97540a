package service_test

import (
	"context"
	"testing"

	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/lineasybo"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/service"
)

// TestOptimizeBackendsNeverCoalesce is the canonical-key regression for the
// optimizer field: two requests identical in every respect except the
// search backend are different computations and must never share a job —
// the pre-extension key shape would silently alias them onto whichever
// backend ran first.
func TestOptimizeBackendsNeverCoalesce(t *testing.T) {
	svc, _ := newTestServer(t, service.Config{Jobs: 1})

	base := service.OptimizeRequest{Scenario: "svc-test", MaxSims: 60, MaxGens: 3, Seed: service.Seed(5)}

	memetic := base
	memetic.Optimizer = "memetic"
	j1, cached, err := svc.SubmitOptimize(memetic)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first submission reported as cached")
	}

	// Identical request resubmitted: must coalesce (the key still works).
	j1b, cached, err := svc.SubmitOptimize(memetic)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || j1b.Status().ID != j1.Status().ID {
		t.Errorf("identical request did not coalesce: %s vs %s", j1b.Status().ID, j1.Status().ID)
	}

	// The default resolves to "memetic", so an empty optimizer field and
	// the explicit spelling are the same computation.
	j1c, cached, err := svc.SubmitOptimize(base)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || j1c.Status().ID != j1.Status().ID {
		t.Errorf("default-optimizer request did not coalesce with explicit memetic: %s vs %s", j1c.Status().ID, j1.Status().ID)
	}

	// Same request, different backend: a different computation.
	bo := base
	bo.Optimizer = lineasybo.Name
	j2, cached, err := svc.SubmitOptimize(bo)
	if err != nil {
		t.Fatal(err)
	}
	if cached || j2.Status().ID == j1.Status().ID {
		t.Errorf("requests differing only in optimizer coalesced onto one job (%s)", j1.Status().ID)
	}

	// Unknown backends are rejected at submission, not at run time.
	bad := base
	bad.Optimizer = "no-such-backend"
	if _, _, err := svc.SubmitOptimize(bad); err == nil {
		t.Error("submission with unknown optimizer succeeded")
	}
}

// TestServedLinEasyBOMatchesLocal extends the served-vs-local determinism
// contract to the BO backend: POST /v1/optimize with optimizer "lineasybo"
// must reproduce the in-process run bit for bit, and the result must carry
// the backend name.
func TestServedLinEasyBOMatchesLocal(t *testing.T) {
	_, client := newTestServer(t, service.Config{Jobs: 1})
	ctx := context.Background()

	req := service.OptimizeRequest{
		Scenario: "svc-test", Method: "moheco", Optimizer: lineasybo.Name,
		MaxSims: 60, MaxGens: 8, Seed: service.Seed(5),
	}
	st, err := client.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || st.Optimize == nil {
		t.Fatalf("state %s, optimize %v", st.State, st.Optimize)
	}
	if st.Optimize.Optimizer != lineasybo.Name {
		t.Errorf("served result carries optimizer %q, want %q", st.Optimize.Optimizer, lineasybo.Name)
	}

	p := scenario.MustGet("svc-test").New()
	opts := core.DefaultOptions(core.MethodMOHECO, 60)
	opts.Backend = lineasybo.Name
	opts.Seed = 5
	opts.MaxGenerations = 8
	want, err := core.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Optimize
	if got.BestYield != want.BestYield || got.TotalSims != want.TotalSims ||
		got.Generations != want.Generations || got.Feasible != want.Feasible {
		t.Errorf("served lineasybo (yield %v, sims %d, gens %d) != local (yield %v, sims %d, gens %d)",
			got.BestYield, got.TotalSims, got.Generations,
			want.BestYield, want.TotalSims, want.Generations)
	}
	for i := range want.BestX {
		if got.BestX[i] != want.BestX[i] {
			t.Errorf("BestX[%d]: served %v, local %v", i, got.BestX[i], want.BestX[i])
		}
	}
}
