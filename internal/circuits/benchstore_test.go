package circuits

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// compiles reads circuits_testbench_compiles_total.
func compiles() int64 { return obs.Default().Counter("circuits_testbench_compiles_total").Value() }

// A stage-2 top-up of one candidate runs its chunks through the
// testbenches the store already holds: from 35 to 500 samples it compiles
// at most one testbench per worker, not one per 32-sample chunk.
func TestTopUpCompilesAtMostOnePerWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		p := NewCommonSourceSpice()
		c := yieldsim.NewCandidate(p, p.ReferenceDesign(), yieldsim.Config{Sampler: sample.PMC{}, Workers: workers}, nil, 5)
		if err := c.AddSamples(35); err != nil {
			t.Fatal(err)
		}
		before := compiles()
		if err := c.EnsureSamples(500); err != nil {
			t.Fatal(err)
		}
		if got := compiles() - before; got > int64(workers) {
			t.Errorf("workers=%d: the 35→500 top-up compiled %d testbenches, want at most %d", workers, got, workers)
		}
		if c.Samples() != 500 {
			t.Fatalf("workers=%d: %d samples after the top-up", workers, c.Samples())
		}
	}
}

// A batch after SetLanes runs on an engine of the new lane count, and a
// batch after SetTranWindow integrates the new window: both settings are
// read at compile, so setting either drops the idle testbenches.
func TestSettingsDropIdleTestbenches(t *testing.T) {
	xis := sample.PMC{}.Draw(randx.New(3), 4, NewCommonSourceSpice().VarDim())

	p := NewCommonSourceSpice().SetLanes(4)
	x := p.ReferenceDesign()
	p.EvaluateBatch(x, xis)
	p.SetLanes(1)
	p.EvaluateBatch(x, xis)
	if n := len(p.idle.bench); n != 1 {
		t.Fatalf("%d idle testbenches after SetLanes and one batch, want 1", n)
	}
	if got := p.idle.bench[0].eng.Lanes(); got != 1 {
		t.Errorf("the batch after SetLanes(1) ran on %d lanes", got)
	}

	tp := NewCommonSourceTran()
	tp.EvaluateBatch(x, xis[:1])
	if err := tp.SetTranWindow(1.5e-7, 1.5e-10, true); err != nil {
		t.Fatal(err)
	}
	got, gotErrs := tp.EvaluateBatch(x, xis[:1])
	if n := len(tp.idle.bench); n != 1 {
		t.Fatalf("%d idle testbenches after SetTranWindow and one batch, want 1", n)
	}
	if o := tp.idle.bench[0].tran; o.TStop != 1.5e-7 || o.Step != 1.5e-10 || o.Adaptive {
		t.Errorf("the batch after SetTranWindow integrated %+v", *o)
	}
	fresh := NewCommonSourceTran()
	if err := fresh.SetTranWindow(1.5e-7, 1.5e-10, true); err != nil {
		t.Fatal(err)
	}
	want, wantErr := fresh.Evaluate(x, xis[0])
	if err := sameResult(got[0], gotErrs[0], want, wantErr); err != nil {
		t.Errorf("after SetTranWindow: %v", err)
	}
}

// The store is bounded: a serial caller's many designs leave at most
// minIdleBenches idle testbenches, and a design evicted from it compiles
// again.
func TestIdleStoreBounded(t *testing.T) {
	p := NewCommonSourceSpice()
	ref := p.ReferenceDesign()
	xi := [][]float64{make([]float64, p.VarDim())}
	design := func(i int) []float64 {
		x := append([]float64(nil), ref...)
		x[0] *= 1 + 0.01*float64(i)
		return x
	}
	before := compiles()
	for i := range minIdleBenches + 2 {
		p.EvaluateBatch(design(i), xi)
	}
	if n := len(p.idle.bench); n != minIdleBenches {
		t.Errorf("%d idle testbenches, want the bound %d", n, minIdleBenches)
	}
	p.EvaluateBatch(design(minIdleBenches+1), xi) // the newest: a hit
	p.EvaluateBatch(design(0), xi)                // the oldest: evicted
	if got, want := compiles()-before, int64(minIdleBenches+3); got != want {
		t.Errorf("%d compiles, want %d", got, want)
	}
}

// More callers at once than minIdleBenches raise the bound to what they
// held: after a round of minIdleBenches+4 concurrent batches of one design
// (every worker of a wide machine on one served yield), the next such round
// finds every testbench again and compiles none.
func TestIdleStoreKeepsBusiestRound(t *testing.T) {
	p := NewCommonSourceSpice()
	x := p.ReferenceDesign()
	const callers = minIdleBenches + 4
	round := func() {
		held := make([]*testbench, callers)
		for i := range held {
			if held[i] = p.idle.take(x); held[i] == nil {
				var err error
				if held[i], err = p.compile(x); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, tb := range held {
			p.idle.put(tb)
		}
	}
	round()
	before := compiles()
	round()
	if got := compiles() - before; got != 0 {
		t.Errorf("the second round of %d callers compiled %d testbenches, want 0", callers, got)
	}
	if n := len(p.idle.bench); n != callers {
		t.Errorf("%d idle testbenches, want the %d the busiest round held", n, callers)
	}
}

// Goroutines sharing one problem and interleaving designs take and return
// testbenches in every order; each result must still be, bit for bit, what
// a fresh problem's point-wise Evaluate returns. Run it under -race (CI's
// race step does).
func TestSharedProblemConcurrentBits(t *testing.T) {
	cs := NewCommonSourceSpice()
	ref := cs.ReferenceDesign()
	alt := append([]float64(nil), ref...)
	alt[0] *= 1.05
	nAC, nTran, rounds := 12, 4, 6
	if raceEnabled {
		nAC, nTran, rounds = 6, 2, 3
	}
	type job struct {
		fresh func() problem.Problem
		x     []float64
		xis   [][]float64
	}
	xis := sample.PMC{}.Draw(randx.New(11), nAC, cs.VarDim())
	tranXis := sample.PMC{}.Draw(randx.New(12), nTran, cs.VarDim())
	jobs := []job{
		{func() problem.Problem { return NewCommonSourceSpice() }, ref, xis},
		{func() problem.Problem { return NewCommonSourceSpice() }, alt, xis},
		{func() problem.Problem { return NewCommonSourceTran() }, ref, tranXis},
	}
	// The oracle: every sample on its own fresh problem.
	type result struct {
		perf []float64
		err  error
	}
	want := make([][]result, len(jobs))
	for j, jb := range jobs {
		for _, xi := range jb.xis {
			perf, err := jb.fresh().Evaluate(jb.x, xi)
			want[j] = append(want[j], result{perf, err})
		}
	}
	shared := []problem.BatchEvaluator{cs, cs, NewCommonSourceTran()}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				// Each goroutine walks the jobs from its own offset, in
				// batches of varying width, so testbenches of both designs
				// move between goroutines and lane widths.
				j := (g + r) % len(jobs)
				jb := jobs[j]
				size := 1 + (g+r)%len(jb.xis)
				for lo := 0; lo < len(jb.xis); lo += size {
					hi := min(lo+size, len(jb.xis))
					perfs, errs := shared[j].EvaluateBatch(jb.x, jb.xis[lo:hi])
					for i := range perfs {
						w := want[j][lo+i]
						if err := sameResult(perfs[i], errs[i], w.perf, w.err); err != nil {
							errc <- fmt.Errorf("goroutine %d, job %d, sample %d: %v", g, j, lo+i, err)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// sameResult compares a result with the oracle's: the same error text, or
// the same performance bits.
func sameResult(got []float64, gotErr error, want []float64, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Errorf("error %v, want %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d performances, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("performance %d = %.17g, want %.17g", i, got[i], want[i])
		}
	}
	return nil
}
