package yieldsim

import (
	"sync"
	"testing"
)

// TestCounterConcurrentStress hammers the shared simulation counter from
// many goroutines, each charging its own ledger under one purpose; run under
// -race it also proves the counter is the only shared mutable state a
// worker needs. Every charge reaches the shared parent at once: the parent
// ends at the sum of its children, purpose by purpose.
func TestCounterConcurrentStress(t *testing.T) {
	var ctr Counter
	const goroutines = 32
	const perG = 2000
	kids := make([]*Counter, goroutines)
	var wg sync.WaitGroup
	for g := range kids {
		kids[g] = NewCounter(&ctr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				kids[g].Add(Purpose(g%int(NumPurposes)), 1)
				_ = ctr.Total() // concurrent reads are legal too
			}
		}()
	}
	wg.Wait()
	if got := ctr.Total(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	var sum Split
	for _, k := range kids {
		if got := k.Total(); got != perG {
			t.Errorf("child ledger = %d, want %d", got, perG)
		}
		for p, n := range k.Split() {
			sum[p] += n
		}
	}
	if got := ctr.Split(); got != sum {
		t.Errorf("parent split %v, want the children's sum %v", got, sum)
	}
}

// TestCandidateWorkersDoNotChangeEstimate asserts the three-phase AddSamples
// contract: the worker count changes wall-clock only, never the estimate,
// the stratum bookkeeping or the simulator-call count.
func TestCandidateWorkersDoNotChangeEstimate(t *testing.T) {
	for _, as := range []bool{false, true} {
		p := &sphereProblem{radius: 1.8, dim: 2}
		var ctrSeq, ctrPar Counter
		seq := NewCandidate(p, []float64{0.5}, Config{AcceptanceSampling: as, Workers: 1}, &ctrSeq, 17)
		par := NewCandidate(p, []float64{0.5}, Config{AcceptanceSampling: as, Workers: 8}, &ctrPar, 17)
		// Mixed batch sizes: below and above the parallel threshold.
		for _, n := range []int{10, 500, 37, 1200} {
			if err := seq.AddSamples(n); err != nil {
				t.Fatal(err)
			}
			if err := par.AddSamples(n); err != nil {
				t.Fatal(err)
			}
		}
		if seq.Yield() != par.Yield() || seq.Samples() != par.Samples() || seq.Sims() != par.Sims() {
			t.Errorf("AS=%v: sequential (y=%v n=%d sims=%d) vs parallel (y=%v n=%d sims=%d)",
				as, seq.Yield(), seq.Samples(), seq.Sims(), par.Yield(), par.Samples(), par.Sims())
		}
		if ctrSeq.Total() != ctrPar.Total() {
			t.Errorf("AS=%v: counters diverged: %d vs %d", as, ctrSeq.Total(), ctrPar.Total())
		}
	}
}

// TestReferenceWorkersDeterministic asserts the fixed-chunk scheme: the
// reference estimate depends only on (seed, n), never on the worker count.
func TestReferenceWorkersDeterministic(t *testing.T) {
	p := &sphereProblem{radius: 1.4, dim: 2}
	want, _, err := ReferenceWorkers(p, []float64{0.5}, 10000, 321, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		got, sims, err := ReferenceWorkers(p, []float64{0.5}, 10000, 321, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		if sims != 10000 {
			t.Errorf("workers=%d: sims = %d", workers, sims)
		}
		if got != want {
			t.Errorf("workers=%d: estimate %v differs from sequential %v", workers, got, want)
		}
	}
}
