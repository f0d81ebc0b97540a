package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/core"
	_ "github.com/eda-go/moheco/internal/lineasybo" // register the BO backend
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// ledgerOptions is a small run of backend under method.
func ledgerOptions(backend string, m core.Method, seed uint64) core.Options {
	o := core.DefaultOptions(m, 120)
	o.Backend = backend
	o.PopSize = 16
	o.MaxGenerations = 25
	o.StallLocal = 2
	o.FixedSims = 80
	o.Seed = seed
	return o
}

// TestSimSplitSumsToTotal: every backend's per-purpose split sums exactly
// to TotalSims under every method, charges only the purposes the method
// spends on, and is the same at every worker count. commonsource reaches
// its target through stage-2 promotions; telescopic runs long enough for
// incumbent top-ups and Nelder–Mead probes. Across the grid, every purpose
// an optimization spends on is charged somewhere.
func TestSimSplitSumsToTotal(t *testing.T) {
	scenarios := []struct {
		name string
		new  func() problem.Problem
	}{
		{"commonsource", func() problem.Problem { return circuits.NewCommonSource() }},
		{"telescopic", func() problem.Problem { return circuits.NewTelescopic() }},
	}
	var seen yieldsim.Split
	for _, sc := range scenarios {
		for _, backend := range []string{"memetic", "lineasybo"} {
			for _, m := range []core.Method{core.MethodMOHECO, core.MethodOOOnly, core.MethodFixedBudget} {
				t.Run(fmt.Sprintf("%s/%s/%v", sc.name, backend, m), func(t *testing.T) {
					var splits []yieldsim.Split
					for _, workers := range []int{1, 4} {
						o := ledgerOptions(backend, m, 5)
						o.Workers = workers
						res, err := core.Optimize(sc.new(), o)
						if err != nil {
							t.Fatal(err)
						}
						s := res.SimSplit
						if s.Total() != res.TotalSims {
							t.Fatalf("workers=%d: split %v sums to %d, TotalSims %d", workers, s, s.Total(), res.TotalSims)
						}
						fixed := m == core.MethodFixedBudget
						checks := []struct {
							p       yieldsim.Purpose
							charged bool
						}{
							{yieldsim.Screen, true},
							{yieldsim.Stage1, !fixed},
							{yieldsim.Fixed, fixed},
							{yieldsim.NMProbe, res.NMTriggers > 0},
							{yieldsim.Reference, false},
						}
						for _, c := range checks {
							if (s[c.p] > 0) != c.charged {
								t.Errorf("workers=%d: purpose %d charged %d (NM triggers %d), want charged=%v",
									workers, c.p, s[c.p], res.NMTriggers, c.charged)
							}
						}
						if fixed && s[yieldsim.Stage2] != 0 {
							t.Errorf("fixed budget charged %d to stage 2", s[yieldsim.Stage2])
						}
						splits = append(splits, s)
					}
					if splits[0] != splits[1] {
						t.Errorf("split at Workers 1 %v, at Workers 4 %v", splits[0], splits[1])
					}
					for p, n := range splits[0] {
						seen[p] += n
					}
				})
			}
		}
	}
	for p := yieldsim.Purpose(0); p < yieldsim.Reference; p++ {
		if seen[p] == 0 {
			t.Errorf("no run charged anything to purpose %d", p)
		}
	}
}

// TestSharedParentLedger: runs that share one parent counter and run
// concurrently each return exactly their solo Result, and the parent ends
// at what it held plus the sum of the runs, purpose by purpose.
func TestSharedParentLedger(t *testing.T) {
	runs := []core.Options{
		ledgerOptions("memetic", core.MethodMOHECO, 3),
		ledgerOptions("lineasybo", core.MethodOOOnly, 4),
		ledgerOptions("memetic", core.MethodFixedBudget, 6),
	}
	solo := make([]*core.Result, len(runs))
	for i, o := range runs {
		res, err := core.Optimize(circuits.NewTelescopic(), o)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = res
	}

	var parent yieldsim.Counter
	parent.Add(yieldsim.Reference, 1000) // a host counter need not start at zero
	want := parent.Split()
	shared := make([]*core.Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, o := range runs {
		o.Counter = &parent
		o.Workers = 2
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[i], errs[i] = core.Optimize(circuits.NewTelescopic(), o)
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(shared[i], solo[i]) {
			t.Errorf("run %d under a shared parent diverged from its solo run:\n got %+v\nwant %+v", i, shared[i], solo[i])
		}
		for p, n := range solo[i].SimSplit {
			want[p] += n
		}
	}
	if got := parent.Split(); got != want {
		t.Errorf("parent ledger %v, want %v", got, want)
	}
}
