package circuits

import (
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
)

// The lockstep batch path must be bit-identical to the scalar batch path
// (lanes pinned to 1) and to the point-wise path, for every
// simulator-in-the-loop problem and every lane width — 3 (the generic lane
// loop), 4 and 8 (the constant-width kernel), transients included — the
// lane determinism contract surfaced at problem granularity. The short
// batches leave a partially-active tail group at every width under test.
func TestLockstepBitIdenticalPerProblem(t *testing.T) {
	type refProblem interface {
		problem.Problem
		ReferenceDesign() []float64
	}
	cases := []struct {
		name string
		n    int
		mk   func(lanes int) refProblem
	}{
		{"common-source-spice", 22, func(k int) refProblem { return NewCommonSourceSpice().SetLanes(k) }},
		{"folded-cascode-spice", 11, func(k int) refProblem { return NewFoldedCascodeSpice().SetLanes(k) }},
		{"common-source-tran", 11, func(k int) refProblem { return NewCommonSourceTran().SetLanes(k) }},
		{"folded-cascode-tran", 7, func(k int) refProblem { return NewFoldedCascodeTran().SetLanes(k) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			scalar := c.mk(1)
			x := scalar.ReferenceDesign()
			rng := randx.New(23)
			xis := sample.LHS{}.Draw(rng, c.n, scalar.VarDim())

			refPerfs, refErrs := scalar.(problem.BatchEvaluator).EvaluateBatch(x, xis)
			okCount := 0
			for i := range refErrs {
				if refErrs[i] == nil {
					okCount++
				}
			}
			if okCount < len(xis)/2 {
				t.Fatalf("only %d/%d samples evaluated — the comparison is vacuous", okCount, len(xis))
			}
			// The scalar batch path must itself match point-wise evaluation
			// bitwise (fixed-nominal warm start, no rolling state).
			for i := 0; i < len(xis); i += 5 {
				perf, err := scalar.Evaluate(x, xis[i])
				if (err == nil) != (refErrs[i] == nil) {
					t.Fatalf("sample %d: point-wise err %v, batch err %v", i, err, refErrs[i])
				}
				if err != nil {
					continue
				}
				for j := range perf {
					if math.Float64bits(perf[j]) != math.Float64bits(refPerfs[i][j]) {
						t.Fatalf("sample %d perf %d: point-wise %v, scalar batch %v", i, j, perf[j], refPerfs[i][j])
					}
				}
			}
			for _, lanes := range []int{3, 4, 8} {
				perfs, errs := c.mk(lanes).(problem.BatchEvaluator).EvaluateBatch(x, xis)
				for i := range xis {
					if (errs[i] == nil) != (refErrs[i] == nil) {
						t.Fatalf("lanes=%d sample %d: scalar err %v, lockstep err %v", lanes, i, refErrs[i], errs[i])
					}
					if errs[i] != nil {
						continue
					}
					for j := range refPerfs[i] {
						if math.Float64bits(perfs[i][j]) != math.Float64bits(refPerfs[i][j]) {
							t.Errorf("lanes=%d sample %d perf %d: scalar %v, lockstep %v",
								lanes, i, j, refPerfs[i][j], perfs[i][j])
						}
					}
				}
			}
			// A batch shorter than the lane width runs one narrower group
			// (width min(lanes, n)), and a one-sample batch takes the scalar
			// path point-wise Evaluate takes: both land on the same bits.
			wide := c.mk(8)
			same := func(what string, i int, perf []float64, err error) {
				t.Helper()
				if (err == nil) != (refErrs[i] == nil) {
					t.Fatalf("%s sample %d: scalar err %v, got err %v", what, i, refErrs[i], err)
				}
				for j := range perf {
					if math.Float64bits(perf[j]) != math.Float64bits(refPerfs[i][j]) {
						t.Errorf("%s sample %d perf %d: scalar %v, got %v", what, i, j, refPerfs[i][j], perf[j])
					}
				}
			}
			perfs, errs := wide.(problem.BatchEvaluator).EvaluateBatch(x, xis[:3])
			for i := range perfs {
				same("n=3 at lanes=8", i, perfs[i], errs[i])
			}
			perfs, errs = wide.(problem.BatchEvaluator).EvaluateBatch(x, xis[4:5])
			same("one-sample batch", 4, perfs[0], errs[0])
			perf, err := wide.Evaluate(x, xis[4])
			same("point-wise at lanes=8", 4, perf, err)
		})
	}
}
