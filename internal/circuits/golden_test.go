package circuits

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
)

// -update regenerates testdata/circuits_goldens.json from the current code.
// Regenerate only when a change is meant to alter what a circuit computes;
// a refactor of the evaluators or testbenches must leave the file untouched.
var updateGoldens = flag.Bool("update", false, "rewrite testdata/circuits_goldens.json")

const goldenPath = "testdata/circuits_goldens.json"

// goldenProblems are the circuits the golden pins, by scenario name: the
// three behavioural evaluators and the four spice testbenches.
func goldenProblems() []struct {
	name string
	p    interface {
		problem.Problem
		ReferenceDesign() []float64
	}
} {
	return []struct {
		name string
		p    interface {
			problem.Problem
			ReferenceDesign() []float64
		}
	}{
		{"foldedcascode", NewFoldedCascode()},
		{"telescopic", NewTelescopic()},
		{"commonsource", NewCommonSource()},
		{"commonsource-spice", NewCommonSourceSpice()},
		{"foldedcascode-spice", NewFoldedCascodeSpice()},
		{"commonsource-tran", NewCommonSourceTran()},
		{"foldedcascode-tran", NewFoldedCascodeTran()},
	}
}

// goldenSample is one sample's outcome: its performance vector as IEEE-754
// bit patterns in hex, or its error text.
type goldenSample struct {
	Perf []string `json:"perf,omitempty"`
	Err  string   `json:"err,omitempty"`
}

// goldenDesign is one design's batch of samples.
type goldenDesign struct {
	Scenario string         `json:"scenario"`
	Design   int            `json:"design"`
	Samples  []goldenSample `json:"samples"`
}

// goldenRun evaluates every golden problem at its reference design and
// three random designs inside its bounds, each under 16 ξ: drawn vectors,
// the nominal nil, one six times as wide (the TOX guard and the clamps)
// and one malformed; then a malformed design (design -1) under two
// nominal ξ. Each sample goes through the problem's batch path and
// through point-wise Evaluate, and the two must agree.
func goldenRun(t *testing.T) []goldenDesign {
	var out []goldenDesign
	for _, gp := range goldenProblems() {
		p := gp.p
		rng := randx.New(35)
		designs := [][]float64{p.ReferenceDesign()}
		for len(designs) < 4 {
			designs = append(designs, problem.RandomDesign(p, rng))
		}
		designs = append(designs, designs[0][:p.Dim()-1])
		for d, x := range designs {
			xis := [][]float64{nil, nil}
			if d < 4 {
				xis = sample.PMC{}.Draw(rng, 16, p.VarDim())
				xis[3] = nil
				for i := range xis[9] {
					xis[9][i] *= 6
				}
				xis[12] = xis[12][:p.VarDim()-1]
			} else {
				d = -1
			}
			perfs, errs, err := problem.EvaluateBatch(p, x, xis)
			if err != nil {
				t.Fatalf("%s design %d: %v", gp.name, d, err)
			}
			g := goldenDesign{Scenario: gp.name, Design: d}
			for s, xi := range xis {
				gs := goldenOf(perfs[s], errs[s])
				if pw := goldenOf(p.Evaluate(x, xi)); fmt.Sprint(pw) != fmt.Sprint(gs) {
					t.Fatalf("%s design %d sample %d: batch %v, point-wise %v", gp.name, d, s, gs, pw)
				}
				g.Samples = append(g.Samples, gs)
			}
			out = append(out, g)
		}
	}
	return out
}

// goldenOf is the golden form of one sample's outcome.
func goldenOf(perf []float64, err error) goldenSample {
	if err != nil {
		return goldenSample{Err: err.Error()}
	}
	g := goldenSample{Perf: make([]string, len(perf))}
	for i, v := range perf {
		g.Perf[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return g
}

// TestCircuitGoldens pins the performance-vector bits and error texts of
// every behavioural evaluator and spice testbench against the committed
// goldens.
func TestCircuitGoldens(t *testing.T) {
	got := goldenRun(t)
	if *updateGoldens {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update): %v", err)
	}
	var want []goldenDesign
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d golden designs, the run made %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Scenario != g.Scenario || w.Design != g.Design || len(w.Samples) != len(g.Samples) {
			t.Fatalf("golden %d is %s design %d with %d samples, the run made %s design %d with %d",
				i, w.Scenario, w.Design, len(w.Samples), g.Scenario, g.Design, len(g.Samples))
		}
		for s := range w.Samples {
			if fmt.Sprint(w.Samples[s]) != fmt.Sprint(g.Samples[s]) {
				t.Errorf("%s design %d sample %d: got %v, golden %v", g.Scenario, g.Design, s, g.Samples[s], w.Samples[s])
			}
		}
	}
}
