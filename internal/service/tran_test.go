package service_test

import (
	"context"
	"strings"
	"testing"

	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/service"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// tranWindowed is the window-configuration capability of the registered
// transient scenarios (mirrors the service's internal interface).
type tranWindowed interface {
	TranWindow() (tstop, step float64, fixed bool)
	SetTranWindow(tstop, step float64, fixed bool) error
}

// TestServedTranYieldBitIdentical is the time-domain extension of the
// service determinism contract: a served yield on a transient scenario —
// at the default window and at an overridden one — equals the in-process
// estimator bit for bit.
func TestServedTranYieldBitIdentical(t *testing.T) {
	_, client := newTestServer(t, service.Config{Jobs: 2})
	ctx := context.Background()
	const (
		scen = "commonsource-tran"
		n    = 64
		seed = 3
	)

	local := func(configure func(tranWindowed) error) float64 {
		t.Helper()
		p := scenario.MustGet(scen).New()
		if configure != nil {
			if err := configure(p.(tranWindowed)); err != nil {
				t.Fatal(err)
			}
		}
		x, _ := scenario.ReferenceDesign(p)
		y, _, err := yieldsim.ReferenceCtx(nil, p, x, n, seed, yieldsim.RefOptions{Sampler: sample.LHS{}})
		if err != nil {
			t.Fatal(err)
		}
		return y
	}

	// Default window.
	st, err := client.Yield(ctx, service.YieldRequest{
		Scenario: scen, N: n, Seed: service.Seed(seed), Sampler: "lhs",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || st.Yield == nil {
		t.Fatalf("state %s, yield %v", st.State, st.Yield)
	}
	if want := local(nil); st.Yield.Yield != want {
		t.Errorf("served default-window yield %v, local %v", st.Yield.Yield, want)
	}
	if st.Yield.Tran == nil || st.Yield.Tran.TStop != 4e-6 || st.Yield.Tran.Mode != "adaptive" {
		t.Errorf("result does not echo the resolved window: %+v", st.Yield.Tran)
	}

	// Overridden window: a shorter stop time changes the settling oracle,
	// so the served estimate must match the locally reconfigured problem —
	// and differ from the default-window run at this sample size.
	st2, err := client.Yield(ctx, service.YieldRequest{
		Scenario: scen, N: n, Seed: service.Seed(seed), Sampler: "lhs",
		Tran: &service.TranSpec{TStop: 1e-6, Step: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	want2 := local(func(tw tranWindowed) error { return tw.SetTranWindow(1e-6, 1e-9, false) })
	if st2.Yield.Yield != want2 {
		t.Errorf("served custom-window yield %v, local %v", st2.Yield.Yield, want2)
	}
}

// TestTranCacheKeyDistinguishesOptions asserts the canonical-key handling
// of the transient window: different options never coalesce, identical
// resolved options always do — including a request that spells out the
// defaults an earlier request omitted.
func TestTranCacheKeyDistinguishesOptions(t *testing.T) {
	svc, _ := newTestServer(t, service.Config{Jobs: 2})

	submit := func(tran *service.TranSpec) (string, bool) {
		t.Helper()
		j, cached, err := svc.SubmitYield(service.YieldRequest{
			Scenario: "commonsource-tran", N: 32, Seed: service.Seed(5), Tran: tran,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return j.ID, cached
	}

	idDefault, cached := submit(nil)
	if cached {
		t.Fatal("first submission reported cached")
	}
	// Spelled-out defaults coalesce with the omitted form.
	idSpelled, cached := submit(&service.TranSpec{TStop: 4e-6, Step: 4e-9, Mode: "adaptive"})
	if !cached || idSpelled != idDefault {
		t.Errorf("spelled-out defaults did not coalesce: id %s vs %s, cached=%v", idSpelled, idDefault, cached)
	}
	// A different stop time is a different computation.
	idShort, cached := submit(&service.TranSpec{TStop: 2e-6})
	if cached || idShort == idDefault {
		t.Errorf("different tstop coalesced: id %s vs %s, cached=%v", idShort, idDefault, cached)
	}
	// A different integrator mode is a different computation.
	idFixed, cached := submit(&service.TranSpec{Mode: "fixed"})
	if cached || idFixed == idDefault || idFixed == idShort {
		t.Errorf("fixed mode coalesced: id %s, cached=%v", idFixed, cached)
	}
	// Repeating the custom window hits its cache entry.
	idShort2, cached := submit(&service.TranSpec{TStop: 2e-6})
	if !cached || idShort2 != idShort {
		t.Errorf("repeated custom window missed the cache: id %s vs %s, cached=%v", idShort2, idShort, cached)
	}
}

// Tran options on a scenario without a transient window must be rejected
// up front, and an unknown mode likewise.
func TestTranOptionsValidation(t *testing.T) {
	svc, _ := newTestServer(t, service.Config{Jobs: 1})
	_, _, err := svc.SubmitYield(service.YieldRequest{
		Scenario: "svc-test", Tran: &service.TranSpec{TStop: 1e-6},
	})
	if err == nil || !strings.Contains(err.Error(), "no transient window") {
		t.Errorf("tran options on AC scenario: err = %v", err)
	}
	_, _, err = svc.SubmitYield(service.YieldRequest{
		Scenario: "commonsource-tran", Tran: &service.TranSpec{Mode: "magic"},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown tran mode") {
		t.Errorf("unknown mode: err = %v", err)
	}
	_, _, err = svc.SubmitYield(service.YieldRequest{
		Scenario: "commonsource-tran", Tran: &service.TranSpec{TStop: 1e-9, Step: 1e-6},
	})
	if err == nil {
		t.Error("step > tstop accepted")
	}
	// Negative overrides must be rejected, not silently dropped in favour
	// of the defaults (a sign typo would otherwise serve the wrong window).
	_, _, err = svc.SubmitYield(service.YieldRequest{
		Scenario: "commonsource-tran", Tran: &service.TranSpec{TStop: -4e-6},
	})
	if err == nil || !strings.Contains(err.Error(), "invalid tran override") {
		t.Errorf("negative tstop: err = %v", err)
	}
}
