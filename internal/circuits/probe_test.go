package circuits

import (
	"math"
	"math/rand"
	"testing"

	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/spice"
)

// probedCase runs one sample of one AC scenario through its compiled
// context and returns the performance vector twice: from the probed sweep
// the scenario now takes (output node, stopped at its unity crossing), and
// from the full all-node sweep with the measures reading the whole output
// column — the pre-probe measures, which built the Bode plot on every swept
// frequency. It also reports whether the probe stopped early.
type probedCase func(x, xi []float64) (probed, full []float64, stopped bool, err error)

// sweepBoth solves the probed sweep and the full all-node sweep at op,
// returning the probed phasors and the full sweep's column of the probed
// node.
func sweepBoth(eng *spice.Engine, op *spice.OPResult, freqs []float64, p spice.Probe) (probed, col []complex128, err error) {
	full, err := eng.AC(op, freqs)
	if err != nil {
		return nil, nil, err
	}
	col = make([]complex128, len(freqs))
	for k := range freqs {
		col[k] = full.V[k][p.Node]
	}
	probed, err = eng.ACProbe(op, freqs, p)
	return probed, col, err
}

// On all four AC scenarios, on random designs and 1.5σ draws, the measures
// from the probed sweep equal those from the full sweep bit for bit.
func TestProbedMeasuresMatchFullSweep(t *testing.T) {
	cs, fc := NewCommonSourceSpice(), NewFoldedCascodeSpice()
	cst, fct := NewCommonSourceTran(), NewFoldedCascodeTran()
	cases := []struct {
		name string
		p    problem.Problem
		n    int
		run  probedCase
	}{
		{"common-source-spice", cs, 40, func(x, xi []float64) ([]float64, []float64, bool, error) {
			ctx, err := cs.compile(x)
			if err != nil {
				return nil, nil, false, err
			}
			ctx.setSample(xi)
			op, err := ctx.eng.DCOperatingPointFrom(ctx.warm0)
			if err != nil {
				return nil, nil, false, err
			}
			h, col, err := sweepBoth(ctx.eng, op, ctx.freqs, ctx.probe)
			if err != nil {
				return nil, nil, false, err
			}
			got, err1 := ctx.measures(op, h, nil)
			want, err2 := ctx.measures(op, col, nil)
			return got, want, len(h) < len(col), firstErr(err1, err2)
		}},
		{"folded-cascode-spice", fc, 40, func(x, xi []float64) ([]float64, []float64, bool, error) {
			ctx, err := fc.compile(x)
			if err != nil {
				return nil, nil, false, err
			}
			ctx.setCards(xi)
			op, err := ctx.eng.DCOperatingPointFrom(ctx.warm0)
			if err != nil {
				return nil, nil, false, err
			}
			h, col, err := sweepBoth(ctx.eng, op, ctx.freqs, ctx.probe)
			if err != nil {
				return nil, nil, false, err
			}
			got, err1 := ctx.measures(op, h, nil)
			want, err2 := ctx.measures(op, col, nil)
			return got, want, len(h) < len(col), firstErr(err1, err2)
		}},
		{"common-source-tran", cst, 8, func(x, xi []float64) ([]float64, []float64, bool, error) {
			ctx, err := cst.compile(x)
			if err != nil {
				return nil, nil, false, err
			}
			ctx.setSample(xi)
			op, err := ctx.eng.DCOperatingPoint()
			if err != nil {
				return nil, nil, false, err
			}
			h, col, err := sweepBoth(ctx.eng, op, ctx.freqs, ctx.probe)
			if err != nil {
				return nil, nil, false, err
			}
			tr, err := ctx.eng.TransientOpts(op, *ctx.tran)
			if err != nil {
				return nil, nil, false, err
			}
			got, err1 := ctx.measures(op, h, tr)
			want, err2 := ctx.measures(op, col, tr)
			return got, want, len(h) < len(col), firstErr(err1, err2)
		}},
		{"folded-cascode-tran", fct, 4, func(x, xi []float64) ([]float64, []float64, bool, error) {
			ctx, err := fct.compile(x)
			if err != nil {
				return nil, nil, false, err
			}
			ctx.setCards(xi)
			op, err := ctx.eng.DCOperatingPoint()
			if err != nil {
				return nil, nil, false, err
			}
			h, col, err := sweepBoth(ctx.eng, op, ctx.freqs, ctx.probe)
			if err != nil {
				return nil, nil, false, err
			}
			tr, err := ctx.eng.TransientOpts(op, *ctx.tran)
			if err != nil {
				return nil, nil, false, err
			}
			got, err1 := ctx.measures(op, h, tr)
			want, err2 := ctx.measures(op, col, tr)
			return got, want, len(h) < len(col), firstErr(err1, err2)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			lo, hi := c.p.Bounds()
			compared, stopped := 0, 0
			for d := 0; d < 4; d++ {
				x := make([]float64, len(lo))
				for i := range x {
					x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
				}
				for s := 0; s < c.n; s++ {
					xi := make([]float64, c.p.VarDim())
					for i := range xi {
						xi[i] = 1.5 * rng.NormFloat64()
					}
					got, want, early, err := c.run(x, xi)
					if err != nil {
						continue
					}
					compared++
					if early {
						stopped++
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("design %d sample %d: perf[%d] = %v from the probed sweep, %v from the full sweep",
								d, s, i, got[i], want[i])
						}
					}
				}
			}
			t.Logf("%d samples compared, %d stopped early", compared, stopped)
			if compared == 0 || stopped == 0 {
				t.Fatalf("compared %d samples, %d stopped early: the comparison is vacuous", compared, stopped)
			}
		})
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
