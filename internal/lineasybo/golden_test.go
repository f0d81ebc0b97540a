package lineasybo_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/lineasybo"
	"github.com/eda-go/moheco/internal/scenario"
)

// -update regenerates testdata/lineasybo_goldens.json from the current code.
// Regenerate only when a change is meant to alter results; a pure speed-up
// of the surrogate or of the sample plans must leave the file untouched.
var updateGoldens = flag.Bool("update", false, "rewrite testdata/lineasybo_goldens.json")

const goldenPath = "testdata/lineasybo_goldens.json"

// goldenCase fixes one line-BO run under a small simulation budget. The
// budget and round cap are sized so that every run leaves the feasibility
// phase and spends most of its rounds in the GP line search, with the
// training window filled to maxTrain.
type goldenCase struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	// StallStop, when set, replaces goldenOpts' unreachable stall limit.
	StallStop int `json:"stall_stop,omitempty"`
}

// key names a case in the golden file and in the subtest list.
func (c goldenCase) key() string {
	if c.StallStop > 0 {
		return fmt.Sprintf("%s/stall%d", c.Scenario, c.StallStop)
	}
	return c.Scenario
}

// goldenResult is the bit-exact fingerprint of one run: float64s as IEEE-754
// bit patterns, plus an FNV-1a digest of the per-generation history.
type goldenResult struct {
	goldenCase
	BestXBits     []uint64 `json:"best_x_bits"`
	BestYieldBits uint64   `json:"best_yield_bits"`
	Feasible      bool     `json:"feasible"`
	TotalSims     int64    `json:"total_sims"`
	Generations   int      `json:"generations"`
	StopReason    string   `json:"stop_reason"`
	HistoryDigest uint64   `json:"history_digest"`
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{Scenario: "foldedcascode", Seed: 3},
		{Scenario: "telescopic", Seed: 5},
		{Scenario: "commonsource", Seed: 11},
		// The cases above never stall. This one spends 63 rounds in the
		// feasibility phase, where the stall count stays 0, reaches a
		// feasible incumbent in round 64 and ends "stalled" after 10 line
		// rounds without improvement.
		{Scenario: "telescopic", Seed: 11, StallStop: 10},
	}
}

func goldenOpts(c goldenCase) core.Options {
	o := core.DefaultOptions(core.MethodMOHECO, 60)
	o.Backend = lineasybo.Name
	o.PopSize = 12
	o.N0 = 8
	o.SimAve = 12
	o.Delta = 5
	o.MaxGenerations = 140
	o.SimBudget = 6000
	// Unreachable target and no stall exit: the budget or the round cap
	// ends every run, so the history covers many GP fits.
	o.TargetYield = 1.1
	o.StallStop = 1 << 20
	if c.StallStop > 0 {
		o.StallStop = c.StallStop
	}
	o.Seed = c.Seed
	o.Workers = 1
	o.RecordPopulations = true
	return o
}

func runGolden(t *testing.T, c goldenCase) goldenResult {
	res, err := core.Optimize(scenario.MustGet(c.Scenario).New(), goldenOpts(c))
	if err != nil {
		t.Fatalf("%s: %v", c.Scenario, err)
	}
	g := goldenResult{
		goldenCase:    c,
		BestYieldBits: math.Float64bits(res.BestYield),
		Feasible:      res.Feasible,
		TotalSims:     res.TotalSims,
		Generations:   res.Generations,
		StopReason:    res.StopReason,
	}
	for _, v := range res.BestX {
		g.BestXBits = append(g.BestXBits, math.Float64bits(v))
	}
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, r := range res.History {
		word(uint64(r.Gen))
		word(math.Float64bits(r.BestYield))
		if r.BestFeasible {
			word(1)
		} else {
			word(0)
		}
		word(math.Float64bits(r.BestViolation))
		word(uint64(r.CumSims))
		word(uint64(r.NumFeasible))
		for _, d := range r.Designs {
			for _, v := range d {
				word(math.Float64bits(v))
			}
		}
		for _, y := range r.Yields {
			word(math.Float64bits(y))
		}
		for _, n := range r.SampleCounts {
			word(uint64(n))
		}
		for _, n := range r.SimCounts {
			word(uint64(n))
		}
	}
	g.HistoryDigest = h.Sum64()
	return g
}

// TestLineBOGoldens pins the line-BO backend bit for bit: best design and
// yield, simulation total and the whole history, on three behavioural
// scenarios. Regenerate deliberately with
// `go test ./internal/lineasybo -run LineBOGoldens -update`.
func TestLineBOGoldens(t *testing.T) {
	if *updateGoldens {
		var out []goldenResult
		for _, c := range goldenCases() {
			out = append(out, runGolden(t, c))
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(out), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update): %v", err)
	}
	var want []goldenResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]goldenResult, len(want))
	for _, g := range want {
		byKey[g.key()] = g
	}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.key(), func(t *testing.T) {
			t.Parallel()
			w, ok := byKey[c.key()]
			if !ok {
				t.Fatalf("no golden for %s — regenerate with -update", c.key())
			}
			got := runGolden(t, c)
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", w) {
				t.Errorf("result diverged from the golden:\n got %+v\nwant %+v", got, w)
			}
		})
	}
}
