// Benchmarks regenerating the paper's tables and figures in reduced
// configurations (3 runs instead of 10, 20k reference samples instead of
// 50k). Each benchmark reports the headline quantities via b.ReportMetric so
// `go test -bench` output doubles as a miniature experiment log; run
// cmd/paperbench for paper-scale reproductions.
package moheco_test

import (
	"io"
	"testing"

	moheco "github.com/eda-go/moheco"
	"github.com/eda-go/moheco/internal/exp"
)

func benchConfig() exp.Config {
	cfg := exp.Quick()
	cfg.Progress = nil
	return cfg
}

// findMethod returns the aggregate for a table row label.
func findMethod(t *exp.TableResult, label string) *exp.MethodResult {
	for i := range t.Methods {
		if t.Methods[i].Label == label {
			return &t.Methods[i]
		}
	}
	return nil
}

// BenchmarkTable1and2 regenerates the example-1 experiment behind Tables 1
// and 2 and Fig. 6: deviation of the reported yield from the reference
// estimate and total simulation counts for all five methods.
func BenchmarkTable1and2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Table1and2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		res.RenderDeviation(io.Discard)
		res.RenderSims(io.Discard)
		exp.RenderFig6(res, io.Discard)
		mo := findMethod(res, "MOHECO")
		if mo != nil {
			b.ReportMetric(100*mo.Deviation.Average, "MOHECO-dev-%")
		}
		if m := findMethod(res, "300 simulations (AS+LHS)"); m != nil {
			b.ReportMetric(100*m.Deviation.Average, "300sim-dev-%")
		}
		fx := findMethod(res, "500 simulations (AS+LHS)")
		if mo != nil && fx != nil && fx.Sims.Average > 0 {
			b.ReportMetric(mo.Sims.Average, "MOHECO-sims")
			b.ReportMetric(fx.Sims.Average, "500sim-sims")
			b.ReportMetric(100*mo.Sims.Average/fx.Sims.Average, "cost-ratio-%")
		}
	}
}

// BenchmarkTable3and4 regenerates the example-2 experiment behind Tables 3
// and 4: yield deviations and total simulation counts.
func BenchmarkTable3and4(b *testing.B) {
	cfg := benchConfig()
	cfg.Runs = 2 // example 2 runs are long (paper: "a few hours in real practice")
	for i := 0; i < b.N; i++ {
		res, err := exp.Table3and4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.RenderDeviation(io.Discard)
		res.RenderSims(io.Discard)
		mo := findMethod(res, "MOHECO")
		if mo != nil {
			b.ReportMetric(100*mo.Deviation.Average, "MOHECO-dev-%")
		}
		fx := findMethod(res, "500 simulations (AS+LHS)")
		if mo != nil && fx != nil && fx.Sims.Average > 0 {
			b.ReportMetric(100*mo.Sims.Average/fx.Sims.Average, "cost-ratio-%")
		}
	}
}

// BenchmarkFig3 regenerates Fig. 3: the OCBA allocation inside one typical
// population of example 1.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
		b.ReportMetric(100*res.HighSimShare, "high-yield-sim-share-%")
		b.ReportMetric(100*res.Ratio, "vs-ASLHS-%")
	}
}

// BenchmarkRSBNN regenerates the §3.4 response-surface comparison: NN
// trained on MOHECO history predicting next-iteration yields.
func BenchmarkRSBNN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunRSB(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.FinalRMS, "final-RMS-%")
	}
}

// BenchmarkPSWCD regenerates the §3.4 worst-case-versus-statistical
// comparison: a corner-based sizing flow against MOHECO on true yield and
// power (the over-design axis).
func BenchmarkPSWCD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunPSWCD(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.CornerYield, "corner-yield-%")
		b.ReportMetric(100*res.MohecoYield, "MOHECO-yield-%")
		b.ReportMetric(100*res.OverDesign, "overdesign-%")
	}
}

// benchEngineOptimize runs one fixed-seed optimization at the given worker
// count; the sequential/parallel benchmark pairs below measure the
// evaluation engine's speedup on the paper's two benchmark circuits (the
// results themselves are identical by the determinism contract).
func benchEngineOptimize(b *testing.B, p moheco.Problem, gens, workers int) {
	b.Helper()
	opts := moheco.DefaultOptions(moheco.MethodFixedBudget, 300)
	opts.PopSize = 24
	opts.MaxGenerations = gens
	opts.Seed = 11
	opts.Workers = workers
	for i := 0; i < b.N; i++ {
		res, err := moheco.Optimize(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalSims), "sims")
	}
}

// BenchmarkEngineFoldedCascodeSequential is the Workers=1 baseline on the
// paper's example 1; compare against BenchmarkEngineFoldedCascodeParallel
// for the engine speedup (requires GOMAXPROCS > 1).
func BenchmarkEngineFoldedCascodeSequential(b *testing.B) {
	benchEngineOptimize(b, moheco.NewFoldedCascodeProblem(), 30, 1)
}

// BenchmarkEngineFoldedCascodeParallel runs the identical workload on the
// full worker pool.
func BenchmarkEngineFoldedCascodeParallel(b *testing.B) {
	benchEngineOptimize(b, moheco.NewFoldedCascodeProblem(), 30, 0)
}

// BenchmarkEngineTelescopicSequential is the Workers=1 baseline on the
// paper's example 2 (123 variation variables; the heavier evaluation).
// The higher generation cap carries the run well past the point the
// population turns feasible, so yield estimation dominates.
func BenchmarkEngineTelescopicSequential(b *testing.B) {
	benchEngineOptimize(b, moheco.NewTelescopicProblem(), 60, 1)
}

// BenchmarkEngineTelescopicParallel runs the identical workload on the full
// worker pool.
func BenchmarkEngineTelescopicParallel(b *testing.B) {
	benchEngineOptimize(b, moheco.NewTelescopicProblem(), 60, 0)
}

// benchEngineReference measures the deterministically-chunked reference
// estimator at the given worker count.
func benchEngineReference(b *testing.B, workers int) {
	b.Helper()
	p := moheco.NewFoldedCascodeProblem()
	x := p.ReferenceDesign()
	for i := 0; i < b.N; i++ {
		y, err := moheco.EstimateYieldWorkers(p, x, 20000, 7, workers)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*y, "yield-%")
	}
}

// BenchmarkEngineReferenceSequential is the Workers=1 baseline for the
// 20k-sample reference estimate.
func BenchmarkEngineReferenceSequential(b *testing.B) { benchEngineReference(b, 1) }

// BenchmarkEngineReferenceParallel runs the identical estimate on the full
// worker pool; the returned yield is bit-identical to the sequential run.
func BenchmarkEngineReferenceParallel(b *testing.B) { benchEngineReference(b, 0) }

// BenchmarkAblation runs the design-choice ablation study: MOHECO with the
// sampler, acceptance sampling, memetic operator and promotion threshold
// individually altered.
func BenchmarkAblation(b *testing.B) {
	cfg := benchConfig()
	cfg.Runs = 2
	for i := 0; i < b.N; i++ {
		res, err := exp.RunAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
		for _, row := range res.Rows {
			if row.Label == "MOHECO (baseline)" {
				b.ReportMetric(row.Sims.Average, "baseline-sims")
			}
		}
	}
}
