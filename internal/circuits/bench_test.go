package circuits_test

import (
	"testing"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/perfsnap"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
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

// --- Batch evaluation pipeline benchmarks (simulator-in-the-loop path) ---
//
// The pair below is the headline number of the batch pipeline: a full yield
// estimate of CommonSourceSpice through yieldsim's chunked batch path
// (netlist + engine compiled once per chunk, model cards perturbed in
// place, Newton warm-started sample to sample) versus the point-wise path
// (the BatchEvaluator capability hidden, so every sample rebuilds the
// netlist and engine and cold-starts the DC solve). Workers=1, so the ratio
// is pure per-sample cost, not parallelism.
//
// Note the point-wise leg still benefits from this PR's shared solver
// optimizations (frequency-split AC stamping, in-place LU, engine scratch).
// Against the pre-batch-pipeline code, which also relinearized every device
// at every AC frequency point, the same 256-sample estimate measured
// 18.6 ms point-wise versus 6.2 ms batched on the CI reference machine —
// a 3.0× throughput gain; the in-tree pair below tracks the remaining
// batch-vs-pointwise gap (≈1.8×) so regressions in either leg show up.

// The bodies live in internal/perfsnap (the paperbench -benchjson local
// snapshot runs the identical cases), so the in-tree `go test -bench`
// numbers and the BENCH_eval.json trajectory cannot drift apart.

// BenchmarkSpiceYieldBatched estimates yield through the batch pipeline
// with engine reuse and warm starts.
func BenchmarkSpiceYieldBatched(b *testing.B) {
	perfsnap.Get("SpiceYieldBatched").Bench(b)
}

// BenchmarkSpiceYieldPointwise is the seed's per-sample path: the
// BatchEvaluator capability is hidden, so every sample rebuilds the netlist
// and engine and cold-starts the DC solve.
func BenchmarkSpiceYieldPointwise(b *testing.B) {
	perfsnap.Get("SpiceYieldPointwise").Bench(b)
}

// --- Lockstep vs one-lane MNA solver benchmarks (largest registered scenario) ---
//
// The folded-cascode half-circuit testbench is a 19-unknown MNA system —
// the largest registered simulator-in-the-loop scenario — so this pair is
// the headline number of the lockstep kernel: a full yield estimate through
// the batch pipeline at the auto lane width versus lanes pinned to 1.
// Workers=1, so the ratio is pure per-sample solver cost.

// BenchmarkSpiceYieldFoldedCascodeSparse runs the yield estimate on the
// static-pattern sparse LU path with symbolic factorization reuse; auto
// lane resolution engages the 8-lane lockstep kernel at this pattern size.
func BenchmarkSpiceYieldFoldedCascodeSparse(b *testing.B) {
	perfsnap.Get("SpiceYieldFoldedCascodeSparse").Bench(b)
}

// BenchmarkSpiceYieldFoldedCascodeSparseScalar pins the lane count to 1 —
// the scalar sparse baseline the lockstep kernel is measured against.
func BenchmarkSpiceYieldFoldedCascodeSparseScalar(b *testing.B) {
	perfsnap.Get("SpiceYieldFoldedCascodeSparseScalar").Bench(b)
}

// BenchmarkSpiceEvalBatch64 measures the amortized per-sample cost of one
// 64-sample batch through the compiled evaluation context.
func BenchmarkSpiceEvalBatch64(b *testing.B) {
	perfsnap.Get("SpiceEvalBatch64").Bench(b)
}

// BenchmarkSpiceEvalPointwise64 evaluates the same 64 samples one call at
// a time — the seed's cost model.
func BenchmarkSpiceEvalPointwise64(b *testing.B) {
	perfsnap.Get("SpiceEvalPointwise64").Bench(b)
}

// --- Transient scenario benchmarks (time-domain pipeline) ---
//
// Each sample of these workloads runs a DC operating point, an AC sweep
// and an adaptive-trapezoidal step response; the pair tracks the cost of
// opening the time domain per registered scenario.

// BenchmarkTranYieldCommonSource estimates yield on the quickstart
// step-response scenario (dense solver, ~60 accepted transient points per
// sample).
func BenchmarkTranYieldCommonSource(b *testing.B) {
	perfsnap.Get("TranYieldCommonSource").Bench(b)
}

// BenchmarkTranYieldFoldedCascode estimates yield on the folded-cascode
// step-response scenario (sparse solver path, the largest transient
// workload).
func BenchmarkTranYieldFoldedCascode(b *testing.B) {
	perfsnap.Get("TranYieldFoldedCascode").Bench(b)
}
