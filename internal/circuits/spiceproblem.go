package circuits

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/spice"
)

// SpiceProblem is the fully general evaluation path of the paper's flow:
// every Monte-Carlo sample evaluates a perturbed transistor-level testbench
// through the MNA engine (DC operating point, probed AC sweep and, on a
// transient scenario, a step response), exactly as the paper runs HSPICE
// per sample. One type serves every simulator-in-the-loop scenario; what a
// scenario adds is its testbenchDef.
//
// It implements problem.BatchEvaluator: all Monte-Carlo samples of one
// design share a compiled testbench — the netlist and engine are built once
// per design, each sample rewrites the perturbed model cards in place, and
// the samples run through the lockstep kernel in lane groups. The problem
// keeps its idle compiled testbenches in a small store keyed by the
// design's bits, so the per-design setup is paid once across calls, not
// once per batch: a candidate's 32-sample chunks, a stage-2 top-up and
// every served yield of one design reuse the testbenches earlier calls
// compiled, one per concurrent caller. Every sample warm-starts from the
// testbench's fixed nominal operating point or solves cold, and grouping is
// a pure function of the call, so point-wise, batched at any lane width,
// reused or freshly compiled, and served results are all the same bits.
// Point-wise Evaluate remains two to three orders of magnitude slower per
// sample than the behavioural evaluators — the gap that motivates the
// paper's budget allocation in the first place; the batch path and the
// store claw back the per-sample setup and solver cost that gap is made
// of. A SpiceProblem is safe for concurrent evaluation; SetLanes and, on a
// transient scenario, SetTranWindow configure it and must not race with
// it.
type SpiceProblem struct {
	// frame is the scenario's name, error prefix and specs over its
	// circuit's deck, space, bounds and reference design.
	frame
	def testbenchDef
	// lanes pins the engine's lockstep lane count (0 = auto).
	lanes int
	// idle holds the compiled testbenches no call is running.
	idle benchStore
}

// minIdleBenches is the store's bound while fewer testbenches than that
// have been out at once: room for a serial caller to alternate among a few
// designs without recompiling. An idle testbench holds about 40 KB on
// common-source, 95 KB on the folded cascode and 215 KB on its transient
// scenario, lane buffers included.
const minIdleBenches = 8

// mCompiles counts compiled testbenches: with the store, about one per
// worker per design, not one per batch.
var mCompiles = obs.Default().Counter("circuits_testbench_compiles_total")

// benchStore is a SpiceProblem's bounded store of idle compiled
// testbenches, each keyed by the bits of the design it was compiled at. A
// testbench runs one batch at a time, so EvaluateBatch takes one out for
// its run and puts it back after; concurrent batches of one design hold one
// testbench each. The store keeps at most max(minIdleBenches, peak) idle
// testbenches, peak being the most that callers have held out at once, so
// every worker of the busiest round finds its testbench again, and the
// store never keeps more than that round already held; past the bound the
// least recently returned testbench is dropped.
type benchStore struct {
	mu    sync.Mutex
	bench []*testbench // least recently returned first
	// busy counts the testbenches out on a run (compiling included), and
	// peak the most that have been out at once.
	busy, peak int
}

// take removes and returns an idle testbench compiled at design x, or nil
// for the caller to compile one. Either way the caller now holds a
// testbench out, and ends that with put.
func (s *benchStore) take(x []float64) *testbench {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy++
	s.peak = max(s.peak, s.busy)
	for i := len(s.bench) - 1; i >= 0; i-- {
		if sameBits(s.bench[i].x, x) {
			tb := s.bench[i]
			s.bench = slices.Delete(s.bench, i, i+1)
			return tb
		}
	}
	return nil
}

// put ends a take: it returns tb to the store, dropping the oldest idle
// testbench when the store is full. A nil tb (the compile failed) only
// ends the take.
func (s *benchStore) put(tb *testbench) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy--
	if tb == nil {
		return
	}
	if len(s.bench) >= max(minIdleBenches, s.peak) {
		s.bench = slices.Delete(s.bench, 0, 1)
	}
	s.bench = append(s.bench, tb)
}

// drop empties the store: its testbenches were compiled under settings
// that no longer hold.
func (s *benchStore) drop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bench = nil
}

// sameBits reports whether designs a and b are bit for bit the same.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// testbenchDef is what one spice scenario declares beyond its frame.
type testbenchDef struct {
	// warm makes every sample's DC solve warm-start from the design's
	// nominal operating point, solved once at compile; without it samples
	// solve cold and compile solves nothing (the transient scenarios'
	// determinism contract, see TranProblem).
	warm bool
	// compile builds the testbench at design x on an engine of the given
	// lane count: its perturbed cards, its per-sample state and its AC
	// measures.
	compile func(x []float64, lanes int) (*testbench, error)
	// netlist builds the nominal testbench at design x with the deck's
	// models, for netlistsim and the engine cross-checks.
	netlist func(x []float64) (*netlist.Circuit, map[string]float64, error)
	// step, on a transient scenario, is the step response its samples
	// integrate after the AC sweep.
	step *stepTest
}

// SetLanes pins the engine's lockstep lane count (0 = auto by pattern size,
// 1 = one-lane groups) — the hook the lockstep benchmarks and equivalence
// tests use. Compile reads the count, so it drops the idle testbenches. It
// returns p for chaining.
func (p *SpiceProblem) SetLanes(k int) *SpiceProblem {
	p.lanes = k
	p.idle.drop()
	return p
}

// Netlist builds the nominal testbench at design x: the deck's models and,
// on a transient scenario, the step armed on the input source — the
// waveform the scenario's samples measure.
func (p *SpiceProblem) Netlist(x []float64) (*netlist.Circuit, map[string]float64, error) {
	c, nodeset, err := p.def.netlist(x)
	if err != nil || p.def.step == nil {
		return c, nodeset, err
	}
	vin, err := inputSource(c)
	if err != nil {
		return nil, nil, err
	}
	p.def.step.arm(vin)
	return c, nodeset, nil
}

// compile builds the testbench of design x. A warm scenario solves the
// nominal operating point once here, and every sample warm-starts from it.
func (p *SpiceProblem) compile(x []float64) (*testbench, error) {
	if err := p.checkDesign(x); err != nil {
		return nil, err
	}
	tb, err := p.def.compile(x, p.lanes)
	if err != nil {
		return nil, err
	}
	mCompiles.Inc()
	tb.name = p.tag
	tb.x = slices.Clone(x)
	tb.perfs = len(p.specs)
	if p.def.step != nil {
		tb.armStep(p.def.step)
	}
	if p.def.warm {
		tb.warmStart()
	}
	return tb, nil
}

// Evaluate implements problem.Problem as a one-sample batch — bit-for-bit
// every batch path's result for the same sample.
func (p *SpiceProblem) Evaluate(x, xi []float64) ([]float64, error) {
	return first(p.EvaluateBatch(x, [][]float64{xi}))
}

// EvaluateBatch implements problem.BatchEvaluator: the samples run in
// lockstep lane groups through an idle testbench of design x, or through
// one compiled for the call, which then joins the store.
func (p *SpiceProblem) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	tb := p.idle.take(x)
	if tb == nil {
		var err error
		if tb, err = p.compile(x); err != nil {
			p.idle.put(nil)
			return failAll(len(xis), err)
		}
	}
	perfs, errs := tb.run(xis)
	// An idle testbench keeps only its engine's steady-state scratch, not
	// that of every short batch width it has run.
	tb.eng.TrimScratch()
	p.idle.put(tb)
	return perfs, errs
}

// TranProblem is a spice scenario scored on combined AC and time-domain
// specs: per Monte-Carlo sample the testbench is solved for its DC
// operating point, swept in AC and stepped in time through the adaptive
// trapezoidal integrator (slew, settling, overshoot) — the spec mix real
// sizing flows score candidates on. It is a SpiceProblem with a
// configurable transient window.
//
// # Determinism contract
//
// Unlike the AC-only scenarios, the transient ones never warm-start the DC
// solve, not even from the fixed nominal operating point. The adaptive
// integrator's accept/reject decisions are discrete: a low-bit difference
// in the DC operating point (warm vs cold Newton both converge, to
// different last bits) could flip one LTE comparison, fork the step grid
// and move a measure by the LTE tolerance — easily enough to flip a
// borderline sample's pass/fail and break the batched-vs-fallback
// bit-identity the yield pipeline asserts per scenario. Cold-starting every
// sample makes the per-sample result a pure function of (x, ξ), so every
// execution path — point-wise, batched, any worker count, served — lands
// on the same bits, on a reused testbench or a fresh one. The batch path
// and the testbench store amortize what dominates per-design cost:
// netlist construction, engine assembly and the sparse symbolic
// factorization; the lockstep kernel additionally batches the cold DC
// solves, AC sweeps and adaptive transients of K samples per traversal
// (bit-identical to one-lane solves by the lane contract). Each transient
// lane keeps its own step grid: a round attempts every unfinished lane's
// own next step in one lockstep Newton run, so the lanes share the
// factorizations, not the grid.
type TranProblem struct {
	SpiceProblem
	TranConfig
}

// newTranProblem builds the transient scenario of frame f and testbench
// def integrating window win; def.step measures it.
func newTranProblem(f frame, def testbenchDef, win TranConfig) *TranProblem {
	p := &TranProblem{SpiceProblem: SpiceProblem{frame: f, def: def}, TranConfig: win}
	p.def.step.window = &p.TranConfig
	return p
}

// SetLanes pins the engine's lockstep lane count (0 = auto, 1 = one-lane
// groups). It returns p for chaining.
func (p *TranProblem) SetLanes(k int) *TranProblem {
	p.SpiceProblem.SetLanes(k)
	return p
}

// SetTranWindow overrides the transient window (see
// TranConfig.SetTranWindow). Compile reads the window, so it drops the idle
// testbenches.
func (p *TranProblem) SetTranWindow(tstop, step float64, fixed bool) error {
	if err := p.TranConfig.SetTranWindow(tstop, step, fixed); err != nil {
		return err
	}
	p.idle.drop()
	return nil
}

// NewCommonSourceSpice builds the quickstart problem evaluated through the
// MNA engine per sample, warm-started: the same problem as CommonSource, so
// the behavioural fast path and the simulator-in-the-loop path can be
// compared directly. Performance vector, aligned with CommonSource's specs:
// [A0 dB, GBW Hz, power W, satmargin V].
func NewCommonSourceSpice() *SpiceProblem {
	cs := NewCommonSource()
	return &SpiceProblem{
		frame: cs.renamed("common-source-0.35um-spice", "common-source-spice", cs.specs),
		def:   testbenchDef{warm: true, compile: cs.spiceBench, netlist: cs.nominalNetlist},
	}
}

// NewFoldedCascodeSpice builds the folded-cascode half-circuit testbench
// evaluated through the MNA engine per sample, warm-started — the largest
// registered simulator-in-the-loop workload: a 19-unknown MNA system, so
// every DC Newton iteration and every AC frequency point runs a
// fill-bounded sparse factorization. Performance vector, aligned with the
// behavioural FoldedCascode's specs: [A0 dB, GBW Hz, PM deg, OS V, power W,
// satmargin V]. The half circuit draws roughly half the full differential
// supply current, so its yield surface is its own (a testbench problem, not
// a substitute reference for the paper's tables).
func NewFoldedCascodeSpice() *SpiceProblem {
	fc := NewFoldedCascode()
	return &SpiceProblem{
		frame: fc.renamed("folded-cascode-0.35um-spice", "folded-cascode-spice", fc.specs),
		def:   testbenchDef{warm: true, compile: fc.spiceBench, netlist: fc.FoldedCascodeNetlist},
	}
}

// NewCommonSourceTran builds the quickstart stage's step response: a 2 mV
// gate step (small-signal: ≈0.1 V output swing at the reference gain)
// applied shortly after t=0 through a 1 ns edge. Performance vector,
// aligned with Specs(): [A0 dB, GBW Hz, slew V/s, ts1% s, overshoot]. The
// spec bounds are calibrated so each measure actively gates samples at the
// reference design (the transistor-level testbench clears the behavioural
// problem's paper bounds with huge margin, which would leave an all-pass
// oracle): the 2000-sample reference yield is ≈95.7% (pinned in
// tranproblem_test.go).
func NewCommonSourceTran() *TranProblem {
	cs := NewCommonSource()
	return newTranProblem(cs.renamed("common-source-0.35um-tran", "common-source-tran", []constraint.Spec{
		{Name: "A0", Sense: constraint.AtLeast, Bound: 40.5, Unit: "dB", Scale: 40.5},
		{Name: "GBW", Sense: constraint.AtLeast, Bound: 85e6, Unit: "Hz"},
		{Name: "slew", Sense: constraint.AtLeast, Bound: 4.9e5, Unit: "V/s"},
		{Name: "ts1%", Sense: constraint.AtMost, Bound: 8.6e-7, Unit: "s"},
		{Name: "overshoot", Sense: constraint.AtMost, Bound: 0.05, Scale: 0.05},
	}), testbenchDef{
		compile: cs.spiceBench,
		netlist: cs.nominalNetlist,
		step:    &stepTest{amp: 2e-3, delay: 50e-9, rise: 1e-9},
	}, TranConfig{tstop: 4e-6, step: 4e-9})
}

// NewFoldedCascodeTran builds the folded-cascode half circuit's step
// response: a 0.1 mV input step (the open-loop gain is ~70 dB, so the
// output moves ~0.3 V — large enough to measure, small enough to stay in
// the linear output range). Performance vector, aligned with Specs(): [A0
// dB, GBW Hz, PM deg, slew V/s, ts1% s, overshoot]. The settling figure is
// the open-loop one (the testbench has no feedback loop), which is
// dominated by A0/GBW — it bounds the dominant-pole time constant, exactly
// the figure the paper's AC specs only constrain indirectly. As with the
// quickstart variant, the bounds are calibrated to the half-circuit
// testbench so every measure actively gates samples: the 500-sample
// reference yield is ≈98% (pinned in tranproblem_test.go).
func NewFoldedCascodeTran() *TranProblem {
	fc := NewFoldedCascode()
	return newTranProblem(fc.renamed("folded-cascode-0.35um-tran", "folded-cascode-tran", []constraint.Spec{
		{Name: "A0", Sense: constraint.AtLeast, Bound: 85, Unit: "dB", Scale: 85},
		{Name: "GBW", Sense: constraint.AtLeast, Bound: 85e6, Unit: "Hz"},
		{Name: "PM", Sense: constraint.AtLeast, Bound: 85, Unit: "deg"},
		{Name: "slew", Sense: constraint.AtLeast, Bound: 4.5e4, Unit: "V/s"},
		{Name: "ts1%", Sense: constraint.AtMost, Bound: 30e-6, Unit: "s"},
		{Name: "overshoot", Sense: constraint.AtMost, Bound: 0.05, Scale: 0.05},
	}), testbenchDef{
		compile: fc.spiceBench,
		netlist: fc.FoldedCascodeNetlist,
		step:    &stepTest{amp: 1e-4, delay: 2e-6, rise: 10e-9, pm: true},
	}, TranConfig{tstop: 100e-6, step: 100e-9})
}

var (
	_ problem.Problem        = (*SpiceProblem)(nil)
	_ problem.BatchEvaluator = (*SpiceProblem)(nil)
	_ problem.Problem        = (*TranProblem)(nil)
	_ problem.BatchEvaluator = (*TranProblem)(nil)
)

// TranConfig is the embeddable transient-window configuration of a
// time-domain problem: the integration window, the initial (adaptive) or
// uniform (fixed) step, and the integrator mode. It is the knob the
// service's tran request options and the CLIs' -tstop/-tstep/-tranmode
// flags resolve against.
type TranConfig struct {
	tstop float64
	step  float64
	fixed bool
}

// TranWindow reports the resolved transient window: stop time, step and
// whether the integrator runs the fixed-step mode instead of the adaptive
// LTE-controlled one.
func (c *TranConfig) TranWindow() (tstop, step float64, fixed bool) {
	return c.tstop, c.step, c.fixed
}

// SetTranWindow overrides the transient window. All values must be fully
// resolved: tstop > 0 and 0 < step ≤ tstop.
func (c *TranConfig) SetTranWindow(tstop, step float64, fixed bool) error {
	if tstop <= 0 || step <= 0 || step > tstop {
		return fmt.Errorf("circuits: invalid transient window tstop=%g step=%g", tstop, step)
	}
	c.tstop = tstop
	c.step = step
	c.fixed = fixed
	return nil
}

// tranOptions builds the integrator options for the configured window.
func (c *TranConfig) tranOptions() *spice.TranOptions {
	return &spice.TranOptions{TStop: c.tstop, Step: c.step, Adaptive: !c.fixed}
}

// stepResponse reduces one sample's step response, the "out" waveform wave
// on the time grid times, to [slew V/s, 1% settling s, overshoot]. Failure
// shapes degrade smoothly instead of erroring: a waveform that never
// settles inside the window reports the window length itself (violating
// any tighter bound), and a collapsed swing reports zero slew — both the
// transient analogue of the zero-GBW convention the AC problems use, so
// the yield oracle counts a broken chip rather than a broken simulator.
func (c *TranConfig) stepResponse(times, wave []float64, t0 float64) (slew, tSettle, overshoot float64, err error) {
	st, err := measure.NewStep(times, wave, t0)
	if err != nil {
		return 0, 0, 0, err
	}
	if s, serr := st.SlewRate(); serr == nil {
		slew = s
	}
	tSettle = c.tstop
	if ts, serr := st.SettlingTime(0.01); serr == nil {
		tSettle = ts
	}
	return slew, tSettle, st.Overshoot(), nil
}
