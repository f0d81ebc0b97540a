package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	_ "github.com/eda-go/moheco/internal/circuits" // register the built-in scenarios
	"github.com/eda-go/moheco/internal/scenario"
)

// -update regenerates testdata/memetic_goldens.json from the current code.
// The committed file was generated from the pre-Optimizer-seam monolithic
// loop (after the estimation-accuracy bugfix sweep), so the comparison run
// by TestMemeticGoldens proves the memetic backend ported onto the seam is
// bit-for-bit the old optimizer on every registered scenario.
var updateGoldens = flag.Bool("update", false, "rewrite testdata/memetic_goldens.json")

// goldenCase fixes one (scenario, method) optimization small enough to run
// on every registered scenario — including the simulator-in-the-loop ones —
// in test time, while still exercising screening, OCBA rounds, stage-2
// promotions, the incumbent top-up loop and the NM trigger.
type goldenCase struct {
	Scenario string `json:"scenario"`
	Method   string `json:"method"`
	Seed     uint64 `json:"seed"`
	// StallStop and MaxGenerations, when set, replace goldenOptions'
	// values: a case that pins the stall exit needs a reachable stall
	// limit and room to reach it.
	StallStop      int `json:"stall_stop,omitempty"`
	MaxGenerations int `json:"max_generations,omitempty"`
}

// key names a case in the golden file and in the subtest list.
func (c goldenCase) key() string {
	k := c.Scenario + "/" + c.Method
	if c.StallStop > 0 {
		k += fmt.Sprintf("/stall%d", c.StallStop)
	}
	return k
}

// goldenResult is the bit-exact fingerprint of one run: float64s as IEEE-754
// bit patterns (formatting would round), plus an FNV-1a digest of the full
// per-generation history.
type goldenResult struct {
	goldenCase
	BestXBits     []uint64 `json:"best_x_bits"`
	BestYieldBits uint64   `json:"best_yield_bits"`
	BestSamples   int      `json:"best_samples"`
	Feasible      bool     `json:"feasible"`
	TotalSims     int64    `json:"total_sims"`
	Generations   int      `json:"generations"`
	StopReason    string   `json:"stop_reason"`
	NMTriggers    int      `json:"nm_triggers"`
	HistoryDigest uint64   `json:"history_digest"`
}

func goldenOptions(m Method, c goldenCase) Options {
	o := DefaultOptions(m, 60)
	o.PopSize = 12
	o.MaxGenerations = 6
	o.N0 = 8
	o.SimAve = 12
	o.Delta = 5
	o.FixedSims = 40
	o.StallLocal = 1 // force the memetic operator into the pinned window
	o.NMIters = 3
	// Unreachable target: with the tiny stage-2 budget the easy scenarios
	// report 100% yield in generation 1, which would pin almost none of the
	// loop. Forcing every run through all generations exercises DE
	// selection, OCBA rounds, stage-2 promotions, the incumbent top-up loop,
	// stall bookkeeping and the NM trigger.
	o.TargetYield = 1.1
	o.Seed = c.Seed
	o.RecordPopulations = true
	if c.StallStop > 0 {
		o.StallStop = c.StallStop
	}
	if c.MaxGenerations > 0 {
		o.MaxGenerations = c.MaxGenerations
	}
	return o
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, sc := range scenario.List() {
		cases = append(cases, goldenCase{Scenario: sc.Name, Method: "moheco", Seed: 42})
	}
	// The analytic problems are cheap: pin the other methods there too.
	for _, name := range []string{"commonsource", "telescopic"} {
		cases = append(cases,
			goldenCase{Scenario: name, Method: "oo", Seed: 42},
			goldenCase{Scenario: name, Method: "fixed", Seed: 42},
		)
	}
	// Every case above ends at the generation cap. This one ends "stalled"
	// after Nelder–Mead refinements of a stalled incumbent were accepted
	// (4 triggers, 2 accepted), so it pins the stall reset an accepted
	// refinement makes.
	cases = append(cases, goldenCase{Scenario: "foldedcascode", Method: "moheco", Seed: 42, StallStop: 4, MaxGenerations: 40})
	return cases
}

func methodByName(t *testing.T, name string) Method {
	switch name {
	case "moheco":
		return MethodMOHECO
	case "oo":
		return MethodOOOnly
	case "fixed":
		return MethodFixedBudget
	}
	t.Fatalf("unknown golden method %q", name)
	return 0
}

func runGolden(t *testing.T, c goldenCase) goldenResult {
	res, err := Optimize(scenario.MustGet(c.Scenario).New(), goldenOptions(methodByName(t, c.Method), c))
	if err != nil {
		t.Fatalf("%s/%s: %v", c.Scenario, c.Method, err)
	}
	g := goldenResult{
		goldenCase:    c,
		BestYieldBits: math.Float64bits(res.BestYield),
		BestSamples:   res.BestSamples,
		Feasible:      res.Feasible,
		TotalSims:     res.TotalSims,
		Generations:   res.Generations,
		StopReason:    res.StopReason,
		NMTriggers:    res.NMTriggers,
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

const goldenPath = "testdata/memetic_goldens.json"

// TestMemeticGoldens pins the memetic optimizer bit-for-bit against the
// committed pre-refactor goldens on every registered scenario. Regenerate
// deliberately with `go test ./internal/core -run MemeticGoldens -update`
// (only when a change is MEANT to alter results, e.g. an estimation bugfix).
func TestMemeticGoldens(t *testing.T) {
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
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Fatalf("golden file has %d entries, registry implies %d — regenerate with -update", len(want), len(cases))
	}
	byKey := make(map[string]goldenResult, len(want))
	for _, g := range want {
		byKey[g.key()] = g
	}
	for _, c := range cases {
		c := c
		t.Run(c.key(), func(t *testing.T) {
			t.Parallel()
			w, ok := byKey[c.key()]
			if !ok {
				t.Fatalf("no golden for %s — regenerate with -update", c.key())
			}
			got := runGolden(t, c)
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", w) {
				t.Errorf("result diverged from the pre-refactor golden:\n got %+v\nwant %+v", got, w)
			}
		})
	}
}
