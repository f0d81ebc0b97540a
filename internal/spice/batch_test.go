package spice

import (
	"math"
	"slices"
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

	eng, err := New(ckt, Options{Lanes: k})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Lanes() != k {
		t.Fatalf("want an engine with %d lanes, got %d", k, eng.Lanes())
	}
	active := []bool{true, true, true, true}
	ops, errs := eng.DCOperatingPointBatchFrom(nil, active, set)
	freqs := LogSpace(1e3, 1e8, 4)
	acs, acErrs := eng.ACBatch(ops, freqs, set)

	scalarEng, err := New(ckt, Options{})
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

	eng, err := New(ckt, Options{Lanes: k})
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
	scalarEng, err := New(ckt, Options{})
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

// Lane resolution: explicit request > MOHECO_LANES > size-based auto.
func TestResolveLanes(t *testing.T) {
	t.Setenv("MOHECO_LANES", "") // the auto cases assume no override
	cases := []struct {
		req, size int
		want      int
	}{
		{0, 19, 8},
		{0, 64, 4},
		{0, 300, 2},
		{3, 19, 3},
		{100, 19, maxLanes},
	}
	for _, c := range cases {
		if got := resolveLanes(c.req, c.size); got != c.want {
			t.Errorf("resolveLanes(%d, %d) = %d, want %d", c.req, c.size, got, c.want)
		}
	}
	t.Setenv("MOHECO_LANES", "5")
	if got := resolveLanes(0, 19); got != 5 {
		t.Errorf("MOHECO_LANES=5: got %d lanes", got)
	}
	if got := resolveLanes(2, 19); got != 2 {
		t.Errorf("explicit request must beat MOHECO_LANES: got %d", got)
	}
	t.Setenv("MOHECO_LANES", "junk")
	if got := resolveLanes(0, 19); got != 8 {
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
		o.Lanes = k
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
			ops, _ := eng.DCOperatingPointBatchFrom(nil, active, set)
			for _, op := range ops {
				stepped = stepped || (op != nil && op.Iterations > ladderMax)
			}
			for _, name := range []string{"tran-adaptive", "tran-be"} {
				eng.TransientBatch(ops, b.tranOpts[name], set)
			}
			eng.DCOperatingPointBatchFrom(prev, active, set)
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

	eng, err := New(b.ckt, Options{Lanes: 8})
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

// bitsOf flattens the IEEE-754 bits of an operating point, every
// transistor's evaluation included.
func bitsOf(op *OPResult) []uint64 {
	var b []uint64
	for _, vs := range [][]float64{op.V, op.BranchI} {
		for _, v := range vs {
			b = append(b, math.Float64bits(v))
		}
	}
	for _, m := range op.MOS {
		for _, v := range []float64{m.ID, m.VTH, m.Vov, m.VDsat, m.Gm, m.Gds, m.Gmb, m.Cgs, m.Cgd, m.Cdb, m.Csb} {
			b = append(b, math.Float64bits(v))
		}
		b = append(b, uint64(m.Region))
	}
	return append(b, uint64(op.Iterations))
}

// Batch results live in the engine's per-width storage, but the one-lane
// APIs return results the caller owns: a DCOperatingPoint, ACProbe and
// TransientOpts result keeps its bits across later batch and one-lane calls
// on the same engine, at its own width and at a wider one, whose results
// differ from it.
func TestOneLaneResultsOutliveBatches(t *testing.T) {
	ckt := solverTestbench()
	rl := findR(t, ckt, "RL")
	base := rl.R
	defer func() { rl.R = base }()
	const k = 4
	set := func(l int) { rl.R = base * (1.2 + 0.1*float64(l)) }

	eng, err := New(ckt, Options{Lanes: k})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.FindNode("l5")
	p := Probe{Node: out}
	freqs := LogSpace(1e3, 1e9, 4)
	tro := TranOptions{TStop: 20e-9, Adaptive: true}
	op, err := eng.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	h, err := eng.ACProbe(op, freqs, p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.TransientOpts(op, tro)
	if err != nil {
		t.Fatal(err)
	}
	wantOP, wantH := bitsOf(op), slices.Clone(h)
	wantTr := tr.clone()

	for _, width := range []int{1, k} {
		active := make([]bool, width)
		for l := range active {
			active[l] = true
		}
		ops, errs := eng.DCOperatingPointBatchFrom(op, active, set)
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		if slices.Equal(bitsOf(ops[0]), wantOP) {
			t.Fatalf("width %d: the batch solved the one-lane sample again: the test shows nothing", width)
		}
		hs, _ := eng.ACBatchProbe(ops, freqs, p, set)
		if samePhasors(hs[0], wantH) {
			t.Fatalf("width %d: the batch swept the one-lane sample again: the test shows nothing", width)
		}
		eng.TransientBatch(ops, tro, set)
		set(0)
		op2, err := eng.DCOperatingPoint()
		if err != nil {
			t.Fatal(err)
		}
		eng.ACProbe(op2, freqs, p)
		eng.TransientOpts(op2, tro)
	}
	if !slices.Equal(bitsOf(op), wantOP) {
		t.Error("a DCOperatingPoint result changed under later calls on its engine")
	}
	if !samePhasors(h, wantH) {
		t.Error("an ACProbe record changed under later calls on its engine")
	}
	if !sameTran(tr, wantTr) {
		t.Error("a TransientOpts result changed under later calls on its engine")
	}
}

// TrimScratch keeps the scratch of the engine's lane count and of one lane
// and frees every other width's; the engine solves on after it, bit for bit
// as before, reallocating a freed width on demand.
func TestTrimScratchKeepsLaneCountAndOneLane(t *testing.T) {
	ckt := solverTestbench()
	rl := findR(t, ckt, "RL")
	base := rl.R
	defer func() { rl.R = base }()
	const k = 4
	set := func(l int) { rl.R = base * (1.2 + 0.1*float64(l)) }
	eng, err := New(ckt, Options{Lanes: k})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(width int) []uint64 {
		active := make([]bool, width)
		for l := range active {
			active[l] = true
		}
		ops, errs := eng.DCOperatingPointBatchFrom(nil, active, set)
		if errs[width-1] != nil {
			t.Fatal(errs[width-1])
		}
		return bitsOf(ops[width-1])
	}
	widths := func() []int {
		var ws []int
		for _, bs := range eng.scratch {
			ws = append(ws, bs.k)
		}
		slices.Sort(ws)
		return ws
	}
	want := map[int][]uint64{}
	for _, w := range []int{k, 1, 2, 3} {
		want[w] = solve(w)
	}
	if got := widths(); !slices.Equal(got, []int{1, 2, 3, k}) {
		t.Fatalf("scratch widths %v before the trim, want [1 2 3 %d]", got, k)
	}
	eng.TrimScratch()
	if got := widths(); !slices.Equal(got, []int{1, k}) {
		t.Fatalf("scratch widths %v after the trim, want [1 %d]", got, k)
	}
	for _, w := range []int{3, k, 1, 2} {
		if got := solve(w); !slices.Equal(got, want[w]) {
			t.Fatalf("width %d solves to other bits after the trim", w)
		}
	}
}
