package spice

import (
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/netlist"
)

// findR locates a resistor by name (test helper for per-lane mutation).
func findR(t *testing.T, c *netlist.Circuit, name string) *netlist.Resistor {
	t.Helper()
	for _, d := range c.Devices {
		if r, ok := d.(*netlist.Resistor); ok && r.Name == name {
			return r
		}
	}
	t.Fatalf("no resistor %q", name)
	return nil
}

// sameOP requires two operating points to agree bit for bit.
func sameOP(t *testing.T, label string, a, b *OPResult) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil operating point (%v, %v)", label, a, b)
	}
	if a.Iterations != b.Iterations {
		t.Errorf("%s: iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
	for i := range a.V {
		if math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			t.Fatalf("%s: V[%d] = %v vs %v", label, i, a.V[i], b.V[i])
		}
	}
	for i := range a.BranchI {
		if math.Float64bits(a.BranchI[i]) != math.Float64bits(b.BranchI[i]) {
			t.Fatalf("%s: BranchI[%d] = %v vs %v", label, i, a.BranchI[i], b.BranchI[i])
		}
	}
}

// The lockstep DC and AC paths must be bit-identical, lane by lane, to the
// scalar paths under the same per-lane device state — the engine-level lane
// determinism contract, on a testbench exercising every stampable device.
func TestBatchLanesMatchScalar(t *testing.T) {
	ckt := solverTestbench()
	rl := findR(t, ckt, "RL")
	base := rl.R
	const k = 4
	laneR := make([]float64, k)
	for l := range laneR {
		laneR[l] = base * (1 + 0.03*float64(l))
	}
	set := func(lane int) { rl.R = laneR[lane] }

	eng, err := New(ckt, Options{Solver: SolverSparse, Lanes: k})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Sparse() || eng.Lanes() != k {
		t.Fatalf("want sparse engine with %d lanes, got sparse=%v lanes=%d", k, eng.Sparse(), eng.Lanes())
	}
	active := []bool{true, true, true, true}
	ops, errs := eng.DCOperatingPointBatch(active, set)
	freqs := LogSpace(1e3, 1e8, 4)
	acs, acErrs := eng.ACBatch(ops, freqs, set)

	scalarEng, err := New(ckt, Options{Solver: SolverSparse})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < k; l++ {
		if errs[l] != nil || acErrs[l] != nil {
			t.Fatalf("lane %d: dc err %v, ac err %v", l, errs[l], acErrs[l])
		}
		set(l)
		sop, err := scalarEng.DCOperatingPoint()
		if err != nil {
			t.Fatal(err)
		}
		sameOP(t, "dc lane", ops[l], sop)
		sac, err := scalarEng.AC(sop, freqs)
		if err != nil {
			t.Fatal(err)
		}
		for fi := range freqs {
			for ni := range sac.V[fi] {
				a, b := acs[l].V[fi][ni], sac.V[fi][ni]
				if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
					math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
					t.Fatalf("lane %d: AC V[%d][%d] = %v vs %v", l, fi, ni, a, b)
				}
			}
		}
	}
	rl.R = base
}

// The warm-started batch path must match the scalar warm path per lane, and
// inactive lanes must stay untouched.
func TestBatchFromMatchesScalarWarm(t *testing.T) {
	ckt := solverTestbench()
	rl := findR(t, ckt, "RL")
	base := rl.R
	const k = 4
	laneR := []float64{base, base * 1.05, base * 0.95, base * 1.1}
	set := func(lane int) { rl.R = laneR[lane] }

	eng, err := New(ckt, Options{Solver: SolverSparse, Lanes: k})
	if err != nil {
		t.Fatal(err)
	}
	rl.R = base
	prev, err := eng.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	// Lane 2 inactive: a partial tail group.
	active := []bool{true, true, false, true}
	ops, errs := eng.DCOperatingPointBatchFrom(prev, active, set)
	if ops[2] != nil || errs[2] != nil {
		t.Fatalf("inactive lane produced output: %v %v", ops[2], errs[2])
	}
	scalarEng, err := New(ckt, Options{Solver: SolverSparse})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{0, 1, 3} {
		if errs[l] != nil {
			t.Fatalf("lane %d: %v", l, errs[l])
		}
		set(l)
		sop, err := scalarEng.DCOperatingPointFrom(prev)
		if err != nil {
			t.Fatal(err)
		}
		sameOP(t, "warm lane", ops[l], sop)
	}
	rl.R = base
}

// Lane resolution: explicit request > MOHECO_LANES > size-based auto; dense
// engines always run scalar.
func TestResolveLanes(t *testing.T) {
	t.Setenv("MOHECO_LANES", "") // the auto cases assume no override
	cases := []struct {
		req, size int
		sparse    bool
		want      int
	}{
		{0, 19, true, 8},
		{0, 64, true, 4},
		{0, 300, true, 2},
		{3, 19, true, 3},
		{100, 19, true, maxLanes},
		{0, 19, false, 1},
		{8, 19, false, 1},
	}
	for _, c := range cases {
		if got := resolveLanes(c.req, c.size, c.sparse); got != c.want {
			t.Errorf("resolveLanes(%d, %d, %v) = %d, want %d", c.req, c.size, c.sparse, got, c.want)
		}
	}
	t.Setenv("MOHECO_LANES", "5")
	if got := resolveLanes(0, 19, true); got != 5 {
		t.Errorf("MOHECO_LANES=5: got %d lanes", got)
	}
	if got := resolveLanes(2, 19, true); got != 2 {
		t.Errorf("explicit request must beat MOHECO_LANES: got %d", got)
	}
	t.Setenv("MOHECO_LANES", "junk")
	if got := resolveLanes(0, 19, true); got != 8 {
		t.Errorf("invalid MOHECO_LANES must fall back to auto: got %d", got)
	}
}

// The solver work counters move by the same amount whatever the lane width,
// on groups whose lanes converge on the gmin ladder, only through source
// stepping, fail, or fall back from a warm start, and on transient groups
// whose lanes step their own adaptive or fixed grids; and one-lane solves —
// point-wise DC and AC, transients — record no lockstep occupancy.
func TestSolverCountersIndependentOfLanes(t *testing.T) {
	b := steppingBench()
	ladderMax := 6 * b.opts.MaxIter // six gmin levels at the default ladder
	var want [2]int64
	for i, k := range []int{1, 3, 8} {
		o := b.opts
		o.Solver, o.Lanes = SolverSparse, k
		eng, err := New(b.ckt, o)
		if err != nil {
			t.Fatal(err)
		}
		b.set(0)
		prev, err := eng.DCOperatingPoint()
		if err != nil {
			t.Fatal(err)
		}
		iters, facts := mNewtonIters.Value(), mFactorizations.Value()
		stepped := false
		for g := 0; g < b.samples; g += k {
			active := make([]bool, k)
			for l := range active {
				active[l] = g+l < b.samples
			}
			set := func(l int) { b.set(g + l) }
			ops, _ := eng.DCOperatingPointBatch(active, set)
			for _, op := range ops {
				stepped = stepped || (op != nil && op.Iterations > ladderMax)
			}
			eng.DCOperatingPointBatchFrom(prev, active, set)
			for _, name := range []string{"tran-adaptive", "tran-be"} {
				eng.TransientBatch(ops, b.tranOpts[name], set)
			}
		}
		if !stepped {
			t.Fatalf("K=%d: no lane converged through source stepping", k)
		}
		got := [2]int64{mNewtonIters.Value() - iters, mFactorizations.Value() - facts}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("K=%d: (iterations, factorizations) moved by %v, K=1 by %v", k, got, want)
		}
	}

	eng, err := New(b.ckt, Options{Solver: SolverSparse, Lanes: 8})
	if err != nil {
		t.Fatal(err)
	}
	before := mLockstepLanes.Count()
	for s := 0; s < b.samples; s++ {
		b.set(s)
		op, err := eng.DCOperatingPoint()
		if err != nil {
			continue
		}
		if _, err := eng.DCOperatingPointFrom(op); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.AC(op, b.freqs); err != nil {
			t.Fatal(err)
		}
		eng.TransientOpts(op, TranOptions{TStop: 20e-9, Adaptive: true})
	}
	if n := mLockstepLanes.Count() - before; n != 0 {
		t.Errorf("one-lane solves recorded %d lockstep-lane observations", n)
	}
}
