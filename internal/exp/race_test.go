package exp

import (
	"bytes"
	"strings"
	"testing"

	"github.com/eda-go/moheco/internal/lineasybo"
)

func quickRace() RaceConfig {
	return RaceConfig{
		Config:    Config{Runs: 2, MaxGens: 40, Seed: 9, Workers: 2},
		Backends:  []string{"memetic", lineasybo.Name},
		Scenarios: []string{"commonsource"},
		SimBudget: 1500,
		MaxSims:   60,
	}
}

// TestRunRaceEqualBudget pins the race protocol: both backends appear, every
// cell holds the configured repeats, budget-stopped runs actually reached
// the cap, and repeat seeds are shared across backends so no searcher races
// a seed the other never saw.
func TestRunRaceEqualBudget(t *testing.T) {
	res, err := RunRace(quickRace())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2 (backend × scenario)", len(res.Cells))
	}
	seedsByBackend := map[string]map[uint64]bool{}
	for _, r := range res.Runs {
		if r.StopReason == "budget" && r.Sims < res.SimBudget {
			t.Errorf("%s/%s run %d stopped on budget at %d sims, below the %d cap",
				r.Backend, r.Scenario, r.Run, r.Sims, res.SimBudget)
		}
		if seedsByBackend[r.Backend] == nil {
			seedsByBackend[r.Backend] = map[uint64]bool{}
		}
		seedsByBackend[r.Backend][r.Seed] = true
	}
	for _, c := range res.Cells {
		if c.Runs != 2 {
			t.Errorf("cell %s/%s holds %d runs, want 2", c.Backend, c.Scenario, c.Runs)
		}
	}
	mem, bo := seedsByBackend["memetic"], seedsByBackend[lineasybo.Name]
	if len(mem) == 0 || len(bo) == 0 {
		t.Fatalf("missing backend runs: memetic=%d lineasybo=%d", len(mem), len(bo))
	}
	for s := range mem {
		if !bo[s] {
			t.Errorf("seed %d raced by memetic but not by lineasybo", s)
		}
	}
}

// TestRaceDeterministicExport pins the whole race — runs, aggregation and
// the JSON/CSV exports CI uploads — as a pure function of the config.
func TestRaceDeterministicExport(t *testing.T) {
	export := func(workers int) (string, string) {
		cfg := quickRace()
		cfg.Workers = workers
		res, err := RunRace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := res.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := export(1)
	j2, c2 := export(4)
	if j1 != j2 {
		t.Errorf("race JSON differs between Workers=1 and Workers=4:\n%s\nvs\n%s", j1, j2)
	}
	if c1 != c2 {
		t.Error("race CSV differs between Workers=1 and Workers=4")
	}
	if !strings.Contains(j1, `"backend": "lineasybo"`) || !strings.Contains(j1, `"backend": "memetic"`) {
		t.Errorf("race JSON missing a backend:\n%s", j1)
	}
}
