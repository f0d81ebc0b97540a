package service

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	_ "github.com/eda-go/moheco/internal/circuits" // register the built-in scenarios
	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// specRequest spells a resolved spec out as a request.
func specRequest(spec YieldSpec) YieldRequest {
	return YieldRequest{
		Scenario: spec.Scenario,
		X:        spec.X,
		N:        spec.N,
		Seed:     Seed(spec.Seed),
		Sampler:  spec.Sampler,
		Tran:     spec.Tran,
	}
}

// TestResolveYieldFixedPoint: resolving a resolved spec returns it
// unchanged, key included, for every registered scenario × sampler and for
// a transient override on each tran-capable scenario; and an empty request
// shares its key with the request that spells its defaults out.
func TestResolveYieldFixedPoint(t *testing.T) {
	tran := scenario.TranCapableNames()
	if len(tran) < 2 {
		t.Fatalf("tran-capable scenarios %v, want the two built-in ones", tran)
	}
	for _, sc := range scenario.List() {
		base, _, _, err := ResolveYield(YieldRequest{Scenario: sc.Name})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		reqs := make([]YieldRequest, 0, 4)
		for _, name := range sample.Names() {
			reqs = append(reqs, YieldRequest{Scenario: sc.Name, Sampler: name, Seed: Seed(7)})
		}
		if slices.Contains(tran, sc.Name) {
			if base.Tran == nil {
				t.Fatalf("%s: tran-capable scenario resolved without a window", sc.Name)
			}
			reqs = append(reqs, YieldRequest{Scenario: sc.Name, N: 64,
				Tran: &TranSpec{TStop: 1.5 * base.Tran.TStop, Mode: "fixed"}})
		}
		for _, req := range reqs {
			once, _, _, err := ResolveYield(req)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, req.Sampler, err)
			}
			twice, _, _, err := ResolveYield(specRequest(once))
			if err != nil {
				t.Fatalf("%s/%s: re-resolving: %v", sc.Name, req.Sampler, err)
			}
			if !reflect.DeepEqual(once, twice) {
				t.Errorf("%s/%s: resolve is not a fixed point:\n once  %+v\n twice %+v", sc.Name, req.Sampler, once, twice)
			}
			if k1, k2 := yieldKey(once), yieldKey(twice); k1 != k2 {
				t.Errorf("%s/%s: keys differ:\n %s\n %s", sc.Name, req.Sampler, k1, k2)
			}
		}

		ref, ok := scenario.ReferenceDesign(sc.New())
		if !ok {
			t.Fatalf("%s: no reference design", sc.Name)
		}
		spelled := YieldRequest{Scenario: sc.Name, X: ref, N: sc.DefaultRefSamples, Seed: Seed(1), Sampler: "pmc"}
		if base.Tran != nil {
			w := *base.Tran
			spelled.Tran = &w
		}
		full, _, _, err := ResolveYield(spelled)
		if err != nil {
			t.Fatalf("%s: spelled-out defaults: %v", sc.Name, err)
		}
		if yieldKey(base) != yieldKey(full) {
			t.Errorf("%s: empty request and its spelled-out defaults have different keys:\n %s\n %s",
				sc.Name, yieldKey(base), yieldKey(full))
		}
	}
}

// badSpecs derives unresolved or malformed variants of a resolved spec —
// outside input that must fail, never be defaulted into a computation.
func badSpecs(t *testing.T) (YieldSpec, map[string]YieldSpec) {
	t.Helper()
	good, _, _, err := ResolveYield(YieldRequest{Scenario: "commonsource", N: 2 * yieldsim.ChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	zeroN, shortX, nilX, noSampler := good, good, good, good
	zeroN.N = 0
	shortX.X = good.X[:2]
	nilX.X = nil
	noSampler.Sampler = ""
	return good, map[string]YieldSpec{"n=0": zeroN, "short x": shortX, "nil x": nilX, "no sampler": noSampler}
}

// TestExecuteShardRejectsUnresolvedSpec: a shard whose spec is unresolved
// or has a wrong-length design is reported failed, with no counts and no
// simulations.
func TestExecuteShardRejectsUnresolvedSpec(t *testing.T) {
	good, bad := badSpecs(t)
	res := executeShard(context.Background(), Shard{ID: "s1", Spec: good, First: 0, Last: 1}, "n1", 1, nil)
	if res.Error != "" || len(res.Pass) != 1 || res.Sims != yieldsim.ChunkSize {
		t.Fatalf("good shard: %+v", res)
	}
	var counter yieldsim.Counter
	for name, spec := range bad {
		res := executeShard(context.Background(), Shard{ID: "s2", Spec: spec, First: 0, Last: 1}, "n1", 1, &counter)
		if res.Error == "" || res.Pass != nil || res.Sims != 0 {
			t.Errorf("%s: shard result %+v, want a failure with no counts or sims", name, res)
		}
	}
	if got := counter.Total(); got != 0 {
		t.Errorf("rejected shards simulated %d samples", got)
	}
}

// TestReplicatedUnresolvedSpecFails: a replicated job whose spec is
// unresolved fails when resumed, on a promoted coordinator (the fleet
// path) and on a single node (the in-process path) — it is never run at
// some default.
func TestReplicatedUnresolvedSpecFails(t *testing.T) {
	_, bad := badSpecs(t)
	for _, promoted := range []bool{true, false} {
		s := New(Config{Metrics: obs.NewRegistry(), Fleet: FleetConfig{Node: "n1"}})
		var jobs []ReplicatedJob
		for name, spec := range bad {
			jobs = append(jobs, ReplicatedJob{Key: "k/" + name, Spec: spec})
		}
		s.replica.apply(ReplicateRequest{Jobs: jobs})
		if promoted {
			s.promote()
		} else {
			for key, spec := range s.replica.takeJobs() {
				s.resumeYield(key, spec)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			sts := s.Jobs()
			terminal := len(sts) == len(bad)
			for _, st := range sts {
				terminal = terminal && st.State.Terminal()
			}
			if terminal {
				for _, st := range sts {
					if st.State != StateFailed || !strings.Contains(st.Error, "service: ") {
						t.Errorf("promoted=%v: job %s state %s (%q), want failed", promoted, st.ID, st.State, st.Error)
					}
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("promoted=%v: jobs not terminal: %+v", promoted, sts)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if sims := s.Sims(); sims != 0 {
			t.Errorf("promoted=%v: rejected specs simulated %d samples", promoted, sims)
		}
		s.Close()
	}
}

// TestServedYieldsShareTestbenches: the yields of one spice design resolve
// to one shared problem, so N served yields — each its own job, seed and
// chunks — compile at most one testbench per worker between them.
func TestServedYieldsShareTestbenches(t *testing.T) {
	const workers = 2
	s := New(Config{Jobs: 1, Workers: workers, Metrics: obs.NewRegistry()})
	defer s.Close()
	compiles := obs.Default().Counter("circuits_testbench_compiles_total")
	before := compiles.Value()
	for seed := uint64(1); seed <= 6; seed++ {
		j, _, err := s.SubmitYield(YieldRequest{Scenario: "commonsource-spice", N: 2 * yieldsim.ChunkSize, Seed: Seed(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("seed %d: job %s", seed, st.State)
		}
	}
	if got := compiles.Value() - before; got > workers {
		t.Errorf("6 served yields of one design compiled %d testbenches, want at most %d (one per worker)", got, workers)
	}
}

// TestResolveYieldSharesInstances: resolution hands out one instance per
// scenario at its built-in transient window. A request that spells out the
// built-in window shares it; an override gets a fresh instance of its own,
// configured to it, and leaves the shared instance's window alone.
func TestResolveYieldSharesInstances(t *testing.T) {
	resolve := func(req YieldRequest) any {
		t.Helper()
		_, p, _, err := ResolveYield(req)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const scen = "commonsource-tran"
	base := resolve(YieldRequest{Scenario: scen})
	if again := resolve(YieldRequest{Scenario: scen, N: 64, Seed: Seed(9)}); again != base {
		t.Error("two requests of one scenario resolved to different instances")
	}
	tstop, step, _ := base.(tranProblem).TranWindow()
	if spelled := resolve(YieldRequest{Scenario: scen, Tran: &TranSpec{TStop: tstop, Step: step, Mode: "adaptive"}}); spelled != base {
		t.Error("spelling out the built-in window resolved to another instance")
	}
	short := resolve(YieldRequest{Scenario: scen, Tran: &TranSpec{TStop: tstop / 2}})
	if short == base {
		t.Fatal("an overridden window shares the default instance")
	}
	if got, _, _ := short.(tranProblem).TranWindow(); got != tstop/2 {
		t.Errorf("override instance integrates to %g, want %g", got, tstop/2)
	}
	if got, _, _ := base.(tranProblem).TranWindow(); got != tstop {
		t.Errorf("the default instance's window moved to %g", got)
	}
	if again := resolve(YieldRequest{Scenario: scen, Tran: &TranSpec{TStop: tstop / 2, Step: step}}); again == short {
		t.Error("two override resolutions share one instance: an override must not configure an instance another request holds")
	}
	if _, _, _, err := ResolveYield(YieldRequest{Scenario: scen, Tran: &TranSpec{TStop: step / 2}}); err == nil {
		t.Error("a window shorter than its step was accepted")
	}
}
