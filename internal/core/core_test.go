package core

import (
	"math"
	"reflect"
	"testing"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// quickOpts returns a small-budget configuration for fast tests.
func quickOpts(m Method, seed uint64) Options {
	o := DefaultOptions(m, 200)
	o.PopSize = 24
	o.MaxGenerations = 40
	o.Seed = seed
	return o
}

func TestMethodString(t *testing.T) {
	if MethodMOHECO.String() != "MOHECO" {
		t.Errorf("MOHECO = %q", MethodMOHECO.String())
	}
	if MethodOOOnly.String() != "OO+AS+LHS" {
		t.Errorf("OOOnly = %q", MethodOOOnly.String())
	}
	if MethodFixedBudget.String() != "AS+LHS" {
		t.Errorf("FixedBudget = %q", MethodFixedBudget.String())
	}
}

// TestParseMethod pins the one method-name table the CLI and the daemon
// share.
func TestParseMethod(t *testing.T) {
	for name, want := range map[string]Method{"moheco": MethodMOHECO, "oo": MethodOOOnly, "fixed": MethodFixedBudget} {
		if got, err := ParseMethod(name); err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "MOHECO", "ocba"} {
		if _, err := ParseMethod(bad); err == nil {
			t.Errorf("ParseMethod(%q) accepted", bad)
		}
	}
}

// TestDefaultOptionsMatchPaper pins DefaultOptions and the zero-field fill
// of withDefaults to the paper's settings, every field spelled out:
// FixedSims stays 0 in DefaultOptions and follows MaxSims when filled.
func TestDefaultOptionsMatchPaper(t *testing.T) {
	want := Options{
		Method: MethodFixedBudget, Backend: DefaultBackend,
		PopSize: 50, F: 0.8, CR: 0.8,
		N0: 15, SimAve: 35, Delta: 10, Threshold: 0.97,
		MaxSims: 300, StallLocal: 5, NMIters: 10,
		TargetYield: 1.0, StallStop: 20, MaxGenerations: 300,
		Sampler: sample.LHS{}, AcceptanceSampling: true, Seed: 1,
	}
	if got := DefaultOptions(MethodFixedBudget, 300); !reflect.DeepEqual(got, want) {
		t.Errorf("DefaultOptions(FixedBudget, 300) =\n %+v\nwant\n %+v", got, want)
	}
	lowered := DefaultOptions(MethodFixedBudget, 300)
	lowered.MaxSims = 60
	if got := lowered.withDefaults(); got.FixedSims != 60 {
		t.Errorf("FixedSims = %d after lowering MaxSims to 60, want 60", got.FixedSims)
	}
	filled := want
	filled.Method, filled.AcceptanceSampling, filled.Seed = MethodMOHECO, false, 0
	filled.MaxSims, filled.FixedSims = 500, 500
	if got := (Options{}).withDefaults(); !reflect.DeepEqual(got, filled) {
		t.Errorf("Options{}.withDefaults() =\n %+v\nwant\n %+v", got, filled)
	}
}

func TestOptimizeQuickstartProblem(t *testing.T) {
	p := circuits.NewCommonSource()
	res, err := Optimize(p, quickOpts(MethodMOHECO, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("no feasible design found: %+v", res)
	}
	if res.BestYield < 0.5 {
		t.Errorf("best yield = %v, expected substantial", res.BestYield)
	}
	if res.TotalSims <= 0 {
		t.Error("no simulations counted")
	}
	if err := problem.CheckDesign(p, res.BestX); err != nil {
		t.Errorf("best design out of bounds: %v", err)
	}
	// The reported yield must be backed by the full stage-2 sample budget.
	if res.BestSamples < 200 {
		t.Errorf("reported yield backed by %d samples, want ≥ 200", res.BestSamples)
	}
	// History is contiguous and cumulative sims are non-decreasing.
	prev := int64(0)
	for i, r := range res.History {
		if r.Gen != i+1 {
			t.Fatalf("history gap at %d", i)
		}
		if r.CumSims < prev {
			t.Fatalf("cumulative sims decreased at gen %d", r.Gen)
		}
		prev = r.CumSims
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	p := circuits.NewCommonSource()
	a, err := Optimize(p, quickOpts(MethodMOHECO, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(p, quickOpts(MethodMOHECO, 9))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSims != b.TotalSims || a.BestYield != b.BestYield || a.Generations != b.Generations {
		t.Errorf("same seed, different outcomes: %v/%v/%v vs %v/%v/%v",
			a.TotalSims, a.BestYield, a.Generations, b.TotalSims, b.BestYield, b.Generations)
	}
	for i := range a.BestX {
		if a.BestX[i] != b.BestX[i] {
			t.Fatalf("designs differ at %d", i)
		}
	}
}

func TestMethodCostOrdering(t *testing.T) {
	// The paper's headline: at the same final-accuracy budget, the OO-based
	// methods spend far fewer simulations than the fixed-budget method.
	if testing.Short() {
		t.Skip("multi-run comparison in -short mode")
	}
	p := circuits.NewFoldedCascode()
	sum := map[Method]int64{}
	for _, seed := range []uint64{3, 7} {
		for _, m := range []Method{MethodMOHECO, MethodFixedBudget} {
			o := DefaultOptions(m, 500)
			o.Seed = seed
			res, err := Optimize(p, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Feasible {
				t.Fatalf("%v seed %d found no feasible design", m, seed)
			}
			sum[m] += res.TotalSims
		}
	}
	if sum[MethodMOHECO] >= sum[MethodFixedBudget] {
		t.Errorf("MOHECO (%d sims) should beat fixed budget (%d sims)",
			sum[MethodMOHECO], sum[MethodFixedBudget])
	}
	ratio := float64(sum[MethodMOHECO]) / float64(sum[MethodFixedBudget])
	if ratio > 0.8 {
		t.Errorf("MOHECO/fixed sims ratio = %.2f, want well below 1", ratio)
	}
}

func TestMethodAccuracy(t *testing.T) {
	// The reported yield must track the 50k-sample reference: the paper's
	// Table 1 criterion.
	if testing.Short() {
		t.Skip("reference estimation in -short mode")
	}
	p := circuits.NewFoldedCascode()
	o := DefaultOptions(MethodMOHECO, 500)
	o.Seed = 7
	res, err := Optimize(p, o)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := yieldsim.ReferenceWorkers(p, res.BestX, 50000, 1234, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dev := math.Abs(res.BestYield - ref); dev > 0.03 {
		t.Errorf("reported %.4f vs reference %.4f: deviation %.4f too large",
			res.BestYield, ref, dev)
	}
}

func TestRecordPopulations(t *testing.T) {
	p := circuits.NewCommonSource()
	o := quickOpts(MethodMOHECO, 5)
	o.RecordPopulations = true
	res, err := Optimize(p, o)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, r := range res.History {
		if len(r.Yields) > 0 {
			seen = true
			if len(r.Yields) != len(r.Designs) || len(r.Yields) != len(r.SampleCounts) ||
				len(r.Yields) != len(r.SimCounts) {
				t.Fatalf("snapshot slices misaligned at gen %d", r.Gen)
			}
			for i, y := range r.Yields {
				if y < 0 || y > 1 {
					t.Errorf("yield out of range: %v", y)
				}
				if r.SimCounts[i] > r.SampleCounts[i] {
					t.Errorf("sims %d exceed samples %d", r.SimCounts[i], r.SampleCounts[i])
				}
			}
		}
	}
	if !seen {
		t.Error("no population snapshots recorded")
	}
}

func TestFixedBudgetUsesFixedSims(t *testing.T) {
	p := circuits.NewCommonSource()
	o := quickOpts(MethodFixedBudget, 5)
	o.FixedSims = 150
	o.RecordPopulations = true
	res, err := Optimize(p, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.History {
		for _, n := range r.SampleCounts {
			if n != 150 {
				t.Fatalf("fixed-budget candidate has %d samples, want 150", n)
			}
		}
	}
}

func TestOOBudgetConcentration(t *testing.T) {
	// Within an OO generation, sample counts must differ across candidates
	// whenever several feasible candidates with different yields coexist —
	// the visible effect of OCBA (paper Fig. 3).
	p := circuits.NewCommonSource()
	o := quickOpts(MethodOOOnly, 5)
	o.RecordPopulations = true
	res, err := Optimize(p, o)
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for _, r := range res.History {
		if len(r.SampleCounts) >= 3 {
			min, max := r.SampleCounts[0], r.SampleCounts[0]
			for _, n := range r.SampleCounts {
				if n < min {
					min = n
				}
				if n > max {
					max = n
				}
			}
			if max > min {
				varied = true
			}
		}
	}
	if !varied {
		t.Error("OCBA never differentiated sample counts")
	}
}

func TestInvalidConfig(t *testing.T) {
	p := circuits.NewCommonSource()
	o := quickOpts(MethodMOHECO, 1)
	o.PopSize = 2 // too small for DE
	if _, err := Optimize(p, o); err == nil {
		t.Error("expected config error")
	}
}

func TestBetterFitnessPropagation(t *testing.T) {
	// Regression guard: the best member must never get worse across
	// generations under Deb ordering.
	p := circuits.NewCommonSource()
	res, err := Optimize(p, quickOpts(MethodMOHECO, 13))
	if err != nil {
		t.Fatal(err)
	}
	prev := constraint.Fitness{Feasible: false, Violation: math.Inf(1)}
	for _, r := range res.History {
		cur := constraint.Fitness{Feasible: r.BestFeasible, Yield: r.BestYield, Violation: r.BestViolation}
		if constraint.Better(prev, cur) {
			t.Fatalf("best fitness regressed at gen %d", r.Gen)
		}
		prev = cur
	}
	_ = randx.New(0) // keep import for potential extensions
}
