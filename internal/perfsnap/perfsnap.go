// Package perfsnap runs the spice-path benchmark set in-process and writes
// a BENCH_eval.json perf snapshot in the `go test -json` line schema. It is
// the single source of the benchmark bodies: internal/circuits/bench_test.go
// delegates to Cases so the in-tree `go test -bench` numbers and the
// paperbench -benchjson local snapshot measure exactly the same work, and
// the bench trajectory can be populated from dev machines as well as CI.
package perfsnap

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// pkg is the Package field of every emitted event; consumers of the CI
// artifact group lines by it.
const pkg = "github.com/eda-go/moheco/internal/perfsnap"

// Case is one named benchmark of the spice-path set. Name carries no
// "Benchmark" prefix; the emitted output line adds it, matching the bench
// naming of internal/circuits/bench_test.go.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// yieldBench estimates yield through yieldsim's chunked pipeline at
// Workers=1, the spice-path unit of work tracked across commits. The
// reference design is passed explicitly because capability-hiding wrappers
// (the point-wise legs) conceal it from type assertions.
func yieldBench(mk func() problem.Problem, ref []float64, n int) func(b *testing.B) {
	return func(b *testing.B) {
		p := mk()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			y, _, err := yieldsim.ReferenceWorkers(p, ref, n, 5, nil, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*y, "yield-%")
		}
	}
}

// Cases returns the tracked benchmark set: the batched-vs-pointwise pair on
// the quickstart stage (the batch pipeline's headline), the lockstep-vs-
// one-lane pair on the folded-cascode testbench (the lockstep kernel's
// headline), the amortized 64-sample batch pair, and the transient-scenario pair (DC + AC + adaptive-trapezoidal
// step response per sample — the time-domain pipeline's unit of work).
func Cases() []Case {
	csRef := circuits.NewCommonSourceSpice().ReferenceDesign()
	fcRef := circuits.NewFoldedCascodeSpice().ReferenceDesign()
	return []Case{
		{"TranYieldCommonSource", yieldBench(func() problem.Problem {
			return circuits.NewCommonSourceTran()
		}, csRef, 128)},
		{"TranYieldFoldedCascode", yieldBench(func() problem.Problem {
			return circuits.NewFoldedCascodeTran()
		}, fcRef, 64)},
		{"SpiceYieldBatched", yieldBench(func() problem.Problem {
			return circuits.NewCommonSourceSpice()
		}, csRef, 256)},
		{"SpiceYieldPointwise", yieldBench(func() problem.Problem {
			return struct{ problem.Problem }{circuits.NewCommonSourceSpice()}
		}, csRef, 256)},
		{"SpiceYieldFoldedCascodeSparse", yieldBench(func() problem.Problem {
			// Auto lane resolution: at this 19-unknown pattern the engine
			// runs the 8-lane lockstep kernel.
			return circuits.NewFoldedCascodeSpice()
		}, fcRef, 128)},
		{"SpiceYieldFoldedCascodeSparseScalar", yieldBench(func() problem.Problem {
			// Lanes pinned to 1: the PR 3 scalar sparse path, the baseline
			// the lockstep kernel is measured against.
			return circuits.NewFoldedCascodeSpice().SetLanes(1)
		}, fcRef, 128)},
		{"SpiceEvalBatch64", func(b *testing.B) {
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
		}},
		{"SpiceEvalPointwise64", func(b *testing.B) {
			p := circuits.NewCommonSourceSpice()
			x := p.ReferenceDesign()
			xis := sample.PMC{}.Draw(randx.New(1), 64, p.VarDim())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, xi := range xis {
					if _, err := p.Evaluate(x, xi); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
	}
}

// Get returns the named case; it panics on an unknown name, which is a
// compile-time constant in every caller.
func Get(name string) Case {
	for _, c := range Cases() {
		if c.Name == name {
			return c
		}
	}
	panic(fmt.Sprintf("perfsnap: unknown benchmark case %q", name))
}

// event mirrors the test2json line schema emitted by `go test -json`, the
// format of the CI BENCH_eval.json artifact.
type event struct {
	Time    time.Time `json:"Time"`
	Action  string    `json:"Action"`
	Package string    `json:"Package"`
	Output  string    `json:"Output,omitempty"`
}

// RunConfig is the execution shape a throughput line was measured under.
// It renders as Go sub-benchmark path segments
// (`BenchmarkName/workers=2/lanes=8/served=1`), so trajectory tooling that
// groups by base name keeps working while lines measured under different
// configurations stay distinguishable instead of silently averaging.
type RunConfig struct {
	// Workers is the simulation goroutine bound the run used (0 = the
	// GOMAXPROCS default).
	Workers int
	// Lanes is the lockstep lane count (0 = auto by pattern size).
	Lanes int
	// Served marks a run executed by a mohecod daemon rather than
	// in-process — the workers/lanes then describe the client's request,
	// not necessarily every fleet node.
	Served bool
}

// suffix renders the sub-benchmark path. Zero values are stamped explicitly
// ("workers=0" = GOMAXPROCS, "lanes=0" = auto): an omitted segment would
// collide with a future genuinely-unstamped line.
func (c RunConfig) suffix() string {
	s := fmt.Sprintf("/workers=%d/lanes=%d", c.Workers, c.Lanes)
	if c.Served {
		s += "/served=1"
	}
	return s
}

// AppendThroughput appends a one-line throughput snapshot — a benchmark
// named name that processed samples Monte-Carlo samples in elapsed under
// configuration cfg — to the file at path in the same test2json line schema
// as Write, creating the file when absent. The fleet-smoke CI job uses it
// to record samples/sec at different node counts into BENCH_service.json;
// the samples/s metric is the headline number, the ns/op field is the raw
// elapsed time, and cfg becomes sub-benchmark path segments on the name.
func AppendThroughput(path, name string, samples int64, elapsed time.Duration, cfg RunConfig) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	emit := func(action, output string) error {
		return enc.Encode(event{Time: time.Now().UTC(), Action: action, Package: pkg, Output: output})
	}
	rate := float64(samples) / elapsed.Seconds()
	line := fmt.Sprintf("Benchmark%s%s\t1\t%d ns/op\t%.1f samples/s\n", name, cfg.suffix(), elapsed.Nanoseconds(), rate)
	if err := emit("output", line); err != nil {
		return err
	}
	return emit("pass", "")
}

// Write runs every case through testing.Benchmark and streams the snapshot
// to w, one JSON event per line.
func Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	emit := func(action, output string) error {
		return enc.Encode(event{Time: time.Now().UTC(), Action: action, Package: pkg, Output: output})
	}
	if err := emit("start", ""); err != nil {
		return err
	}
	for _, c := range Cases() {
		r := testing.Benchmark(c.Bench)
		line := fmt.Sprintf("Benchmark%s\t%s\t%s\n", c.Name, r.String(), r.MemString())
		if err := emit("output", line); err != nil {
			return err
		}
	}
	return emit("pass", "")
}
