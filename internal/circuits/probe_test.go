package circuits

import (
	"math"
	"math/rand"
	"testing"

	"github.com/eda-go/moheco/internal/measure"
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
			got, err1 := measureOf(ctx, op, h, nil)
			want, err2 := measureOf(ctx, op, col, nil)
			return got, want, len(h) < len(col), firstErr(err1, err2)
		}},
		{"folded-cascode-spice", fc, 40, func(x, xi []float64) ([]float64, []float64, bool, error) {
			ctx, err := fc.compile(x)
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
			got, err1 := measureOf(ctx, op, h, nil)
			want, err2 := measureOf(ctx, op, col, nil)
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
			got, err1 := measureOf(ctx, op, h, tr)
			want, err2 := measureOf(ctx, op, col, tr)
			return got, want, len(h) < len(col), firstErr(err1, err2)
		}},
		{"folded-cascode-tran", fct, 4, func(x, xi []float64) ([]float64, []float64, bool, error) {
			ctx, err := fct.compile(x)
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
			got, err1 := measureOf(ctx, op, h, tr)
			want, err2 := measureOf(ctx, op, col, tr)
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

// measureOf runs the testbench's measures on a dense sweep h (on
// freqs[:len(h)]) into a fresh performance vector.
func measureOf(tb *testbench, op *spice.OPResult, h []complex128, tr *spice.TranResult) ([]float64, error) {
	perf := make([]float64, tb.perfs)
	return perf, tb.measures(perf, op, measure.Points{H: h}, tr)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// vdsatByName reads one transistor's saturation voltage by instance name, the
// way the measures did before they resolved devices at compile.
func vdsatByName(t *testing.T, eng *spice.Engine, op *spice.OPResult, name string) float64 {
	t.Helper()
	for i, m := range eng.MOSFETs() {
		if m.Name == name {
			return op.MOS[i].VDsat
		}
	}
	t.Fatalf("no transistor %q", name)
	return 0
}

// The AC measures read devices and nodes by index, resolved at compile: on
// random designs and 1.5σ draws the saturation margins and the output swing
// equal, bit for bit, the same formulas read by instance and node name.
func TestMeasuresMatchByNameOracle(t *testing.T) {
	cs, fc := NewCommonSource(), NewFoldedCascode()
	rng := rand.New(rand.NewSource(23))
	draw := func(p problem.Problem) (x, xi []float64) {
		lo, hi := p.Bounds()
		x = make([]float64, len(lo))
		for i := range x {
			x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		xi = make([]float64, p.VarDim())
		for i := range xi {
			xi[i] = 1.5 * rng.NormFloat64()
		}
		return x, xi
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v by index, %v by name", what, got, want)
		}
	}
	compared := 0
	for s := 0; s < 40; s++ {
		x, xi := draw(cs)
		ctx, err := cs.newBench(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctx.warmStart()
		ctx.setSample(xi)
		op, err := ctx.eng.DCOperatingPointFrom(ctx.warm0)
		if err != nil {
			continue
		}
		h, err := ctx.eng.ACProbe(op, ctx.freqs, ctx.probe)
		if err != nil {
			continue
		}
		perf, err := measureOf(&ctx.testbench, op, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		vdd, ms := cs.tech.VDD, cs.msSat
		if ms := ctx.eng.MOSFETs(); ms[ctx.m1].Name != "M1" || ms[ctx.m2].Name != "M2" {
			t.Fatalf("common-source resolved the driver and load to %s and %s", ms[ctx.m1].Name, ms[ctx.m2].Name)
		}
		vout, _ := op.VNode(ctx.ckt, "out")
		same("common-source satmargin", perf[3], minOf(
			vout-vdsatByName(t, ctx.eng, op, "M1")-ms,
			(vdd-vout)-vdsatByName(t, ctx.eng, op, "M2")-ms,
		))
		compared++
	}
	for s := 0; s < 40; s++ {
		x, xi := draw(fc)
		ctx, err := fc.newBench(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctx.warmStart()
		ctx.setSample(xi)
		op, err := ctx.eng.DCOperatingPointFrom(ctx.warm0)
		if err != nil {
			continue
		}
		h, err := ctx.eng.ACProbe(op, ctx.freqs, ctx.probe)
		if err != nil {
			continue
		}
		perf, err := measureOf(&ctx.testbench, op, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		vNode := func(name string) float64 {
			v, _ := op.VNode(ctx.ckt, name)
			return v
		}
		margin := func(dev, dn, sn string) float64 {
			return math.Abs(vNode(dn)-vNode(sn)) - vdsatByName(t, ctx.eng, op, dev)
		}
		for i, want := range []struct{ dev, d, s string }{
			{"M1", "fold", "src"}, {"M3", "fold", "0"}, {"M5", "out", "fold"}, {"M7", "out", "x"}, {"M9", "x", "vdd"},
		} {
			sd := ctx.sat[i]
			got := [3]string{ctx.eng.MOSFETs()[sd.mos].Name, ctx.ckt.NodeName(sd.d), ctx.ckt.NodeName(sd.s)}
			if got != [3]string{want.dev, want.d, want.s} {
				t.Fatalf("folded-cascode signal-path entry %d resolved to %v, want %v", i, got, want)
			}
		}
		inner := fc
		vmax := inner.tech.VDD - vdsatByName(t, ctx.eng, op, "M9") - vdsatByName(t, ctx.eng, op, "M7") - inner.msSwing
		vmin := vdsatByName(t, ctx.eng, op, "M3") + vdsatByName(t, ctx.eng, op, "M5") + inner.msSwing
		same("folded-cascode OS", perf[3], 2*(vmax-vmin))
		same("folded-cascode satmargin", perf[5], minOf(
			margin("M1", "fold", "src"),
			margin("M3", "fold", "0"),
			margin("M5", "out", "fold"),
			margin("M7", "out", "x"),
			margin("M9", "x", "vdd"),
		))
		compared++
	}
	if compared < 40 {
		t.Fatalf("only %d samples converged: the comparison is too thin", compared)
	}
}
