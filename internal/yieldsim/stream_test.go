package yieldsim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/eda-go/moheco/internal/engine"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
)

// wholeChunkPass is ChunkPass with every chunk's whole plan drawn up front
// and evaluated as one batch — the form point-wise PMC chunks had before
// they were streamed. It is the oracle for the streamed path.
func wholeChunkPass(ctx context.Context, p problem.Problem, x []float64, n int, seed uint64, first, last int, o RefOptions) ([]int, error) {
	sampler := o.Sampler
	if sampler == nil {
		sampler = sample.PMC{}
	}
	var (
		mu               sync.Mutex
		doneCum, passCum int64
	)
	return engine.MapCtx(ctx, o.Workers, last-first, func(i int) (int, error) {
		cr := Chunk(n, first+i)
		rng := randx.New(randx.DeriveSeed(seed, uint64(cr.Index)))
		ok, _, err := problem.PassFailBatch(p, x, sampler.Draw(rng, cr.Hi-cr.Lo, p.VarDim()))
		if err != nil {
			return 0, err
		}
		if o.Counter != nil {
			o.Counter.Add(int64(cr.Hi - cr.Lo))
		}
		pass := countPass(ok)
		if o.Progress != nil {
			mu.Lock()
			doneCum += int64(cr.Hi - cr.Lo)
			passCum += int64(pass)
			o.Progress(doneCum, passCum)
			mu.Unlock()
		}
		return pass, nil
	})
}

// cancelAfter is a point-wise problem that cancels its context on its
// at-th evaluation, so a run stops at a chunk boundary fixed by at.
type cancelAfter struct {
	*sphereProblem
	at     int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Evaluate(x, xi []float64) ([]float64, error) {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	return c.sphereProblem.Evaluate(x, xi)
}

// passFunc is ChunkPass's signature, shared by the oracle.
type passFunc func(context.Context, problem.Problem, []float64, int, uint64, int, int, RefOptions) ([]int, error)

// passRun is one ChunkPass-shaped run's full observable outcome.
type passRun struct {
	counts     []int
	err        error
	counter    int64
	done, pass int64
}

func runPass(pass passFunc, ctx context.Context, p problem.Problem, n, first, last, workers int) passRun {
	var r passRun
	var ctr Counter
	o := RefOptions{Workers: workers, Counter: &ctr, Progress: func(done, pass int64) {
		// Calls are serialized and cumulative: the largest is the total.
		if done > r.done {
			r.done, r.pass = done, pass
		}
	}}
	r.counts, r.err = pass(ctx, p, []float64{0.5}, n, 23, first, last, o)
	r.counter = ctr.Total()
	return r
}

func samePassRun(t *testing.T, what string, got, want passRun) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: error %v, oracle %v", what, got.err, want.err)
	}
	if len(got.counts) != len(want.counts) {
		t.Fatalf("%s: %d counts, oracle %d", what, len(got.counts), len(want.counts))
	}
	for i := range want.counts {
		if got.counts[i] != want.counts[i] {
			t.Fatalf("%s: chunk %d passes %d, oracle %d", what, i, got.counts[i], want.counts[i])
		}
	}
	if got.counter != want.counter || got.done != want.done || got.pass != want.pass {
		t.Fatalf("%s: counter %d progress (%d, %d), oracle counter %d progress (%d, %d)",
			what, got.counter, got.done, got.pass, want.counter, want.done, want.pass)
	}
}

// TestChunkPassStreamMatchesWholeChunk pins the streamed point-wise PMC
// path to the whole-chunk draw: per-chunk counts, Counter total and final
// Progress totals, for full chunks, a short last chunk, a plan shorter
// than one stream block, and a sub-range of the chunk space.
func TestChunkPassStreamMatchesWholeChunk(t *testing.T) {
	p := &sphereProblem{radius: 2.6, dim: 7}
	for _, tc := range []struct{ n, first, last int }{
		{3 * ChunkSize, 0, 3},
		{2*ChunkSize + streamRows + 1, 0, 3},
		{streamRows - 5, 0, 1},
		{4*ChunkSize + 100, 1, 5},
	} {
		for _, workers := range []int{1, 2} {
			got := runPass(ChunkPass, nil, p, tc.n, tc.first, tc.last, workers)
			want := runPass(wholeChunkPass, nil, p, tc.n, tc.first, tc.last, workers)
			samePassRun(t, "streamed", got, want)
			if want.err != nil || want.pass == 0 || want.pass == want.done {
				t.Fatalf("n=%d: degenerate oracle run %+v", tc.n, want)
			}
		}
	}
}

// TestChunkPassStreamCancelled cancels both paths inside the same chunk:
// the chunk in flight still finishes whole on both, so the partial counts,
// the Counter and the Progress totals agree.
func TestChunkPassStreamCancelled(t *testing.T) {
	n := 5*ChunkSize + 7
	run := func(pass passFunc) passRun {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p := &cancelAfter{sphereProblem: &sphereProblem{radius: 2.6, dim: 7}, at: ChunkSize + streamRows + 3, cancel: cancel}
		return runPass(pass, ctx, p, n, 0, NumChunks(n), 1)
	}
	got, want := run(ChunkPass), run(wholeChunkPass)
	samePassRun(t, "cancelled", got, want)
	if want.err == nil || want.counter != 2*ChunkSize {
		t.Fatalf("oracle run did not stop after chunk 1: %+v", want)
	}
}

// TestChunkPassStreamsPointwisePMC checks the streamed path is the one
// taken: a ChunkSize × 123 PMC plan is 2 MB, while streaming it allocates
// one small block buffer plus the per-sample results.
func TestChunkPassStreamsPointwisePMC(t *testing.T) {
	p := &sphereProblem{radius: 11, dim: 123}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ChunkPass(nil, p, []float64{0.5}, ChunkSize, 1, 0, 1, RefOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	plan := uint64(ChunkSize * p.dim * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got >= plan/4 {
		t.Errorf("ChunkPass allocated %d B for a point-wise PMC chunk; the whole plan is %d B", got, plan)
	}
}
