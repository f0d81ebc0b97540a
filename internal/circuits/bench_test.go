package circuits_test

import (
	"testing"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// The per-sample evaluation cost bounds every statistical experiment; these
// benchmarks document it per problem.

func benchEvaluate(b *testing.B, p interface {
	Evaluate(x, xi []float64) ([]float64, error)
	VarDim() int
}, x []float64) {
	rng := randx.New(1)
	xi := sample.PMC{}.Draw(rng, 1, p.VarDim())[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Evaluate(x, xi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateCommonSource(b *testing.B) {
	p := circuits.NewCommonSource()
	benchEvaluate(b, p, p.ReferenceDesign())
}

func BenchmarkEvaluateFoldedCascode(b *testing.B) {
	p := circuits.NewFoldedCascode()
	benchEvaluate(b, p, p.ReferenceDesign())
}

func BenchmarkEvaluateTelescopic(b *testing.B) {
	p := circuits.NewTelescopic()
	benchEvaluate(b, p, p.ReferenceDesign())
}

// benchEvaluateBatch times one 32-sample EvaluateBatch per iteration and
// reports ns/sample: the per-sample cost an optimize run's Monte-Carlo
// batches pay, where the single-Evaluate benchmarks above also time the
// per-call design setup.
func benchEvaluateBatch(b *testing.B, p interface {
	EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error)
	VarDim() int
}, x []float64) {
	const samples = 32
	xis := sample.PMC{}.Draw(randx.New(1), samples, p.VarDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs := p.EvaluateBatch(x, xis); errs[0] != nil {
			b.Fatal(errs[0])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

func BenchmarkEvaluateBatchFoldedCascode(b *testing.B) {
	p := circuits.NewFoldedCascode()
	benchEvaluateBatch(b, p, p.ReferenceDesign())
}

func BenchmarkEvaluateBatchTelescopic(b *testing.B) {
	p := circuits.NewTelescopic()
	benchEvaluateBatch(b, p, p.ReferenceDesign())
}

func BenchmarkEvaluateNominalFoldedCascode(b *testing.B) {
	p := circuits.NewFoldedCascode()
	x := p.ReferenceDesign()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Evaluate(x, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Spice-path benchmarks the perfbench ladder does not time ---
//
// The ladder's circuits rungs time the batched spice and transient yield
// paths on the scenarios the workloads run; these two cover the shapes it
// lacks.

// BenchmarkSpiceEvalBatch64 measures the amortized per-sample cost of one
// 64-sample batch through the compiled evaluation context.
func BenchmarkSpiceEvalBatch64(b *testing.B) {
	p := circuits.NewCommonSourceSpice()
	x := p.ReferenceDesign()
	xis := sample.PMC{}.Draw(randx.New(1), 64, p.VarDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := p.EvaluateBatch(x, xis)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTranYieldCommonSource estimates yield at Workers=1 on the
// quickstart step-response scenario: each sample runs a DC operating
// point, an AC sweep and an adaptive-trapezoidal step response (~60
// accepted transient points).
func BenchmarkTranYieldCommonSource(b *testing.B) {
	p := circuits.NewCommonSourceTran()
	x := p.ReferenceDesign()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, _, err := yieldsim.ReferenceWorkers(p, x, 128, 5, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*y, "yield-%")
	}
}
