package circuits

import (
	"math"
	"strings"
	"testing"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
)

// The batched path (engine reuse + in-place card perturbation + Newton warm
// start) must classify every sample exactly as the point-wise path does,
// and agree on the performances to solver tolerance.
func TestSpiceBatchMatchesPointwise(t *testing.T) {
	p := NewCommonSourceSpice()
	x := p.ReferenceDesign()
	rng := randx.New(7)
	xis := sample.LHS{}.Draw(rng, 30, p.VarDim())

	batchPerfs, batchErrs := p.EvaluateBatch(x, xis)
	if len(batchPerfs) != len(xis) || len(batchErrs) != len(xis) {
		t.Fatalf("batch shape: %d perfs, %d errs for %d samples", len(batchPerfs), len(batchErrs), len(xis))
	}
	for i, xi := range xis {
		perf, err := p.Evaluate(x, xi)
		if (err == nil) != (batchErrs[i] == nil) {
			t.Fatalf("sample %d: point-wise err %v, batch err %v", i, err, batchErrs[i])
		}
		if err != nil {
			continue
		}
		// Identical pass/fail classification — the quantity the yield
		// estimate is built from.
		pw := constraint.AllSatisfied(p.Specs(), perf)
		bt := constraint.AllSatisfied(p.Specs(), batchPerfs[i])
		if pw != bt {
			t.Errorf("sample %d: point-wise pass=%v, batch pass=%v", i, pw, bt)
		}
		// Performances agree to solver tolerance (the warm-started Newton
		// solve stops inside the same 1e-9 voltage tolerance band).
		for j := range perf {
			diff := math.Abs(perf[j] - batchPerfs[i][j])
			scale := math.Max(math.Abs(perf[j]), 1e-12)
			if diff/scale > 1e-5 {
				t.Errorf("sample %d perf %d: point-wise %.9g, batch %.9g", i, j, perf[j], batchPerfs[i][j])
			}
		}
	}
}

// spiceScenarios are the four simulator-in-the-loop problems the shared
// testbench runner serves, with the sample count each edge-case test draws
// (kept small for the transient ones).
var spiceScenarios = []struct {
	name string
	n    int
	p    interface {
		problem.BatchEvaluator
		ReferenceDesign() []float64
	}
}{
	{"common-source-spice", 8, NewCommonSourceSpice()},
	{"folded-cascode-spice", 8, NewFoldedCascodeSpice()},
	{"common-source-tran", 6, NewCommonSourceTran()},
	{"folded-cascode-tran", 5, NewFoldedCascodeTran()},
}

// A failing sample inside a batch errors alone: every other sample of its
// lane group and of the groups after it is bit-identical to point-wise
// evaluation, and the failing sample reports the point-wise error.
func TestSpiceBatchFailedSampleIsolated(t *testing.T) {
	for _, c := range spiceScenarios {
		t.Run(c.name, func(t *testing.T) {
			p := c.p
			x := p.ReferenceDesign()
			xis := sample.LHS{}.Draw(randx.New(11), c.n, p.VarDim())
			// Sample 1 drives the simulator into a failure (NaN cards: the
			// DC solve does not converge), reported under the scenario's
			// name. Sample 3 is structurally broken (wrong variation
			// dimension) and never reaches the engine.
			for i := range xis[1] {
				xis[1][i] = math.NaN()
			}
			xis[3] = xis[3][:p.VarDim()-1]

			perfs, errs := p.EvaluateBatch(x, xis)
			if len(perfs) != len(xis) || len(errs) != len(xis) {
				t.Fatalf("batch shape: %d perfs, %d errs for %d samples", len(perfs), len(errs), len(xis))
			}
			for i, xi := range xis {
				perf, err := p.Evaluate(x, xi)
				if i == 1 || i == 3 {
					if errs[i] == nil || err == nil || errs[i].Error() != err.Error() {
						t.Fatalf("failing sample %d: batch err %v, point-wise err %v", i, errs[i], err)
					}
					if i == 1 && !strings.HasPrefix(err.Error(), c.name+": ") {
						t.Fatalf("simulator failure %q lacks the %q prefix", err, c.name)
					}
					continue
				}
				if err != nil || errs[i] != nil {
					t.Fatalf("sample %d errored: point-wise %v, batch %v", i, err, errs[i])
				}
				for j := range perf {
					if math.Float64bits(perf[j]) != math.Float64bits(perfs[i][j]) {
						t.Errorf("sample %d perf %d: point-wise %v, batch %v", i, j, perf[j], perfs[i][j])
					}
				}
			}
		})
	}
}

// A batch over a broken design reports the compile error on every sample,
// as point-wise evaluation does, and an empty batch returns empty results.
func TestSpiceBatchBrokenDesign(t *testing.T) {
	for _, c := range spiceScenarios {
		t.Run(c.name, func(t *testing.T) {
			p := c.p
			perfs, errs := p.EvaluateBatch([]float64{1}, [][]float64{nil, nil})
			if len(perfs) != 2 || len(errs) != 2 {
				t.Fatalf("batch shape: %d/%d", len(perfs), len(errs))
			}
			_, want := p.Evaluate([]float64{1}, nil)
			if want == nil {
				t.Fatal("point-wise evaluation of a broken design did not error")
			}
			for i, err := range errs {
				if err == nil || err.Error() != want.Error() || perfs[i] != nil {
					t.Fatalf("sample %d: got (%v, %v), want the compile error %v", i, perfs[i], err, want)
				}
			}
			for _, xis := range [][][]float64{nil, {}} {
				perfs, errs := p.EvaluateBatch(p.ReferenceDesign(), xis)
				if len(perfs) != 0 || len(errs) != 0 {
					t.Fatalf("empty batch: %d perfs, %d errs", len(perfs), len(errs))
				}
			}
		})
	}
}

// The problem-package adapter must route CommonSourceSpice through the
// native batch path, and a capability-hiding wrapper through the fallback,
// with identical pass/fail outcomes.
func TestSpiceBatchAdapterRouting(t *testing.T) {
	p := NewCommonSourceSpice()
	x := p.ReferenceDesign()
	rng := randx.New(13)
	xis := sample.LHS{}.Draw(rng, 6, p.VarDim())

	native, nativeErrs, err := problem.PassFailBatch(p, x, xis)
	if err != nil {
		t.Fatal(err)
	}
	hidden := struct{ problem.Problem }{p}
	fallback, fallbackErrs, err := problem.PassFailBatch(hidden, x, xis)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xis {
		if native[i] != fallback[i] {
			t.Errorf("sample %d: native %v, fallback %v", i, native[i], fallback[i])
		}
		if (nativeErrs[i] == nil) != (fallbackErrs[i] == nil) {
			t.Errorf("sample %d errors: native %v, fallback %v", i, nativeErrs[i], fallbackErrs[i])
		}
	}
}
