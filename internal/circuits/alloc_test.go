package circuits

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/pdk"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/variation"
)

// perturbation is one device's deviation from its deck card in the
// declarative form the per-device oracle folds the variables into.
type perturbation struct {
	dvth, u0, tox, ld, wd, cj, cjsw, rdiff, gamma, cgo, lambda float64
}

// field returns the field of d an inter-die variable with target t moves
// on a device of the given polarity, and whether it shifts the field (or
// scales it); nil if the variable leaves the device alone.
func (d *perturbation) field(t pdk.Target, pmos bool) (f *float64, shift bool) {
	switch t {
	case pdk.VthN, pdk.VthP:
		f, shift = &d.dvth, true
	case pdk.LDBoth, pdk.LDN, pdk.LDP:
		f, shift = &d.ld, true
	case pdk.WDBoth, pdk.WDN, pdk.WDP:
		f, shift = &d.wd, true
	case pdk.U0N, pdk.U0P:
		f = &d.u0
	case pdk.ToxN, pdk.ToxP:
		f = &d.tox
	case pdk.CJN, pdk.CJP:
		f = &d.cj
	case pdk.CJSWN, pdk.CJSWP:
		f = &d.cjsw
	case pdk.RDN, pdk.RDP:
		f = &d.rdiff
	case pdk.GammaN, pdk.GammaP:
		f = &d.gamma
	case pdk.OverlapN, pdk.OverlapP:
		f = &d.cgo
	case pdk.LambdaN, pdk.LambdaP:
		f = &d.lambda
	default:
		panic(fmt.Sprintf("unknown target %d", t))
	}
	switch t {
	case pdk.LDBoth, pdk.WDBoth:
	case pdk.VthP, pdk.U0P, pdk.ToxP, pdk.LDP, pdk.WDP, pdk.CJP, pdk.CJSWP, pdk.RDP, pdk.GammaP, pdk.OverlapP, pdk.LambdaP:
		if !pmos {
			return nil, false
		}
	default:
		if pmos {
			return nil, false
		}
	}
	return f, shift
}

// perturbedDevice is the per-device builder the behavioural evaluators
// used before the variation space was compiled: every inter-die variable
// folded in through its target's field, then the device's own
// Pelgrom terms, applied to a heap copy of the deck card. It is the oracle
// for the cards Space.WriteCards writes.
func perturbedDevice(space *variation.Space, xi []float64, slot int, nominal *mos.Params, w, l, m float64) *mos.Device {
	d := perturbation{u0: 1, tox: 1, cj: 1, cjsw: 1, rdiff: 1, gamma: 1, cgo: 1, lambda: 1}
	if xi != nil {
		for i, v := range space.Tech.Inter {
			if f, shift := d.field(v.Target, space.Devices[slot].PMOS); f != nil && shift {
				*f += v.Sigma * xi[i]
			} else if f != nil {
				*f *= 1 + v.Sigma*xi[i]
			}
		}
		area := w * l * m * 1e12
		if area < 0.01 {
			area = 0.01
		}
		inv := 1 / math.Sqrt(area)
		mm := space.Tech.Mismatch
		base := len(space.Tech.Inter) + variation.IntraPerDevice*slot
		d.tox *= 1 + mm.ATOX*inv*xi[base+0]
		d.dvth += mm.AVT * inv * xi[base+1]
		d.ld += mm.ALD * inv * 1e-6 * xi[base+2]
		d.wd += mm.AWD * inv * 1e-6 * xi[base+3]
	}
	card := *nominal
	card.VTH0 = nominal.VTH0 + d.dvth
	card.U0 = nominal.U0 * d.u0
	card.TOX = nominal.TOX * d.tox
	card.LD = nominal.LD + d.ld
	card.WD = nominal.WD + d.wd
	card.CJ = nominal.CJ * d.cj
	card.CJSW = nominal.CJSW * d.cjsw
	card.RDiff = nominal.RDiff * d.rdiff
	card.Gamma = nominal.Gamma * d.gamma
	if d.cgo != 0 {
		card.CGSO *= d.cgo
		card.CGDO *= d.cgo
	}
	if d.lambda != 0 {
		card.Lambda0 *= d.lambda
	}
	if card.TOX < 0.2*nominal.TOX {
		card.TOX = 0.2 * nominal.TOX
	}
	return &mos.Device{Params: &card, W: w, L: l, M: m}
}

// TestPerturbCardMatchesDeviceOracle pins the cards the evaluators write —
// Space.WriteCards over every slot at once, the inter-die part computed
// once per sample — to the per-device builder bit for bit on every slot of
// the three behavioural problems, and checks it keeps each destination
// card's name.
func TestPerturbCardMatchesDeviceOracle(t *testing.T) {
	for _, p := range []*frame{&NewCommonSource().frame, &NewFoldedCascode().frame, &NewTelescopic().frame} {
		space := p.space
		rng := randx.New(5)
		n := len(space.Devices)
		cards := make([]mos.Params, n)
		mms := make([]variation.Mismatch, n)
		geom := make([][2]float64, n)
		for slot := range cards {
			cards[slot] = *space.Model(slot)
			cards[slot].Name = "keep"
		}
		var inter variation.Inter
		for trial := 0; trial < 10; trial++ {
			var xi []float64
			if trial > 0 {
				xi = sample.PMC{}.Draw(rng, 1, p.VarDim())[0]
			}
			for slot := range geom {
				w, l := 1e-6+rng.Float64()*100e-6, 0.1e-6+rng.Float64()*2e-6
				geom[slot] = [2]float64{w, l}
				mms[slot] = space.Mismatch(slot, w*l*1e12)
			}
			space.WriteCards(cards, mms, &inter, xi)
			for slot, card := range cards {
				want := perturbedDevice(space, xi, slot, space.Model(slot), geom[slot][0], geom[slot][1], 1)
				if card.Name != "keep" {
					t.Fatalf("%s slot %d: card name %q overwritten", p.Name(), slot, card.Name)
				}
				card.Name = want.Params.Name
				if card != *want.Params {
					t.Fatalf("%s trial %d slot %d: card %+v, oracle %+v", p.Name(), trial, slot, card, *want.Params)
				}
			}
		}
	}
}

// evaluateAllocs is the per-sample allocation budget of a behavioural
// Evaluate: the returned performance slice. Cards, devices and margins
// live on the evaluator's stack, so the count does not grow with the
// number of transistors.
const evaluateAllocs = 1

// TestEvaluateAllocsFixed pins evaluateAllocs on all three behavioural
// problems (3, 15 and 19 transistors).
func TestEvaluateAllocsFixed(t *testing.T) {
	for _, p := range allProblems() {
		rng := randx.New(8)
		x := p.(interface{ ReferenceDesign() []float64 }).ReferenceDesign()
		xi := sample.PMC{}.Draw(rng, 1, p.VarDim())[0]
		if _, err := p.Evaluate(x, xi); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := p.Evaluate(x, xi); err != nil {
				t.Fatal(err)
			}
		})
		if got != evaluateAllocs {
			t.Errorf("%s: Evaluate allocates %v objects per sample, want %d", p.Name(), got, evaluateAllocs)
		}
	}
}

// TestEvaluateBatchAllocsFixed is TestEvaluateAllocsFixed for the batch
// path on all three behavioural problems: an EvaluateBatch call allocates
// its two result slices and the one array its performance vectors share,
// 3 objects at 1, 32 and 100 samples.
func TestEvaluateBatchAllocsFixed(t *testing.T) {
	for _, p := range []interface {
		problem.BatchEvaluator
		ReferenceDesign() []float64
	}{NewFoldedCascode(), NewTelescopic(), NewCommonSource()} {
		x := p.ReferenceDesign()
		xis := sample.PMC{}.Draw(randx.New(8), 100, p.VarDim())
		var counts []float64
		for _, n := range []int{1, 32, 100} {
			counts = append(counts, testing.AllocsPerRun(20, func() {
				if _, errs := p.EvaluateBatch(x, xis[:n]); errors.Join(errs...) != nil {
					t.Fatal(errors.Join(errs...))
				}
			}))
		}
		if counts[0] != 3 || counts[1] != 3 || counts[2] != 3 {
			t.Errorf("%s: EvaluateBatch allocates %v objects at 1, 32 and 100 samples, want 3", p.Name(), counts)
		}
	}
}

// spiceCost is a ceiling on what one call allocates: objects and KB.
type spiceCost struct{ allocs, kbytes float64 }

// spiceEvaluateBudget caps what a spice scenario's Evaluate (n = 1) or
// EvaluateBatch call allocates, on its two paths. compile is a call that
// finds no idle testbench: it compiles one (netlist, engine, symbolic
// analysis and, for a warm scenario, the nominal operating point), then
// runs the samples through the DC solve, the bracketed AC sweep and, for
// the transient scenario, the adaptive step response, allocating the
// engine's per-width storage on the way. warm is a call on the testbench
// an earlier call left in the store: the engine's storage is reused, so it
// allocates only the call's two result slices and the array its
// performance vectors share (3 objects, 24+16+8·perfs bytes a sample),
// however many points a sample solves; one allocation per solved point
// would add about ten objects a sample. The compile ceilings sit just
// above the measured 394 objects and 66.0 KB, 509 objects and 233.7 KB,
// and 191 objects and 20.1 KB (399, 516 and 192 objects under -race).
var spiceEvaluateBudget = []struct {
	p             *SpiceProblem
	n             int // samples per call: 1 is Evaluate, more EvaluateBatch
	compile, warm spiceCost
}{
	{&NewFoldedCascodeTran().SpiceProblem, 1, spiceCost{400, 69}, spiceCost{3, 0.12}},
	{&NewFoldedCascodeTran().SpiceProblem, 8, spiceCost{520, 240}, spiceCost{3, 0.8}},
	{NewCommonSourceSpice(), 1, spiceCost{196, 22}, spiceCost{3, 0.12}},
}

// TestSpiceEvaluateAllocs pins spiceEvaluateBudget: the compile path by
// emptying the testbench store before every call, the warm path on the
// testbench the previous call left there.
func TestSpiceEvaluateAllocs(t *testing.T) {
	for _, b := range spiceEvaluateBudget {
		p := b.p
		x := p.ReferenceDesign()
		xis := sample.PMC{}.Draw(randx.New(8), b.n, p.VarDim())
		eval := func() {
			_, errs, err := problem.EvaluateBatch(p, x, xis)
			if err == nil {
				err = errors.Join(errs...)
			}
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
		}
		if b.n == 1 {
			eval = func() {
				if _, err := p.Evaluate(x, xis[0]); err != nil {
					t.Fatalf("%s: %v", p.Name(), err)
				}
			}
		}
		for _, path := range []struct {
			name    string
			ceiling spiceCost
			call    func()
		}{
			{"compile", b.compile, func() { p.idle.drop(); eval() }},
			{"warm", b.warm, eval},
		} {
			path.call()
			allocs := testing.AllocsPerRun(20, path.call)
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				path.call()
			}
			runtime.ReadMemStats(&after)
			kbytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
			t.Logf("%s, %d samples, %s: %v allocations, %.2f KB per call", p.Name(), b.n, path.name, allocs, kbytes)
			if allocs > path.ceiling.allocs {
				t.Errorf("%s, %d samples, %s: a call allocates %v objects, ceiling %v", p.Name(), b.n, path.name, allocs, path.ceiling.allocs)
			}
			if kbytes > path.ceiling.kbytes {
				t.Errorf("%s, %d samples, %s: a call allocates %.2f KB, ceiling %v KB", p.Name(), b.n, path.name, kbytes, path.ceiling.kbytes)
			}
		}
	}
}

// TestSpiceBatchAllocsIndependentOfSize pins the steady state of the spice
// sample path: past compile and the engine's per-width storage, a sample
// allocates nothing, so an EvaluateBatch call of 64 samples allocates as
// many objects as one of 256. Under -race the detector's runtime adds
// allocations of its own, so the exact comparison runs only without it.
func TestSpiceBatchAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own: the counts are not the program's")
	}
	for _, p := range []interface {
		problem.BatchEvaluator
		ReferenceDesign() []float64
	}{NewCommonSourceSpice(), NewFoldedCascodeSpice(), NewFoldedCascodeTran()} {
		x := p.ReferenceDesign()
		xis := sample.PMC{}.Draw(randx.New(8), 256, p.VarDim())
		var counts []float64
		for _, n := range []int{64, 256} {
			counts = append(counts, testing.AllocsPerRun(10, func() {
				_, errs := p.EvaluateBatch(x, xis[:n])
				if err := errors.Join(errs...); err != nil {
					t.Fatalf("%s: %v", p.Name(), err)
				}
			}))
		}
		t.Logf("%s: %v allocations per call at 64 and 256 samples", p.Name(), counts)
		if counts[0] != counts[1] {
			t.Errorf("%s: a call allocates %v objects at 64 samples, %v at 256", p.Name(), counts[0], counts[1])
		}
	}
}

// TestSpiceSampleEvaluatesEachTransistorOnce pins the device-model work of
// a warm, probed commonsource-spice sample: its DC result evaluates each of
// the three transistors once in full, and the AC sweep stamps those
// evaluations instead of repeating them.
func TestSpiceSampleEvaluatesEachTransistorOnce(t *testing.T) {
	p := NewCommonSourceSpice()
	ctx, err := p.compile(p.ReferenceDesign())
	if err != nil {
		t.Fatal(err)
	}
	if ctx.warm0 == nil {
		t.Fatal("the nominal operating point did not converge: the sample is not warm")
	}
	full := obs.Default().Counter("spice_mos_full_evaluations_total")
	dc := obs.Default().Counter("spice_mos_dc_evaluations_total")
	iters := obs.Default().Counter("spice_newton_iterations_total")
	xi := sample.PMC{}.Draw(randx.New(8), 1, p.VarDim())[0]
	full0, dc0, iters0 := full.Value(), dc.Value(), iters.Value()
	if _, errs := ctx.run([][]float64{xi}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	transistors := int64(len(ctx.eng.MOSFETs()))
	if transistors != 3 {
		t.Fatalf("the testbench has %d transistors, want 3", transistors)
	}
	if got := full.Value() - full0; got != transistors {
		t.Errorf("a sample made %d full MOSFET evaluations, want %d (one per transistor)", got, transistors)
	}
	n := iters.Value() - iters0
	if got := dc.Value() - dc0; n == 0 || got != n*transistors {
		t.Errorf("a sample made %d DC MOSFET evaluations over %d Newton iterations, want one per transistor per iteration", got, n)
	}
}

// TestTranSampleWorkIsAllTheWork pins what a transient scenario's
// one-sample EvaluateBatch solves: its samples solve cold, so compile
// solves nothing, and the call does exactly that sample's Newton
// iterations and full MOSFET evaluations.
func TestTranSampleWorkIsAllTheWork(t *testing.T) {
	full := obs.Default().Counter("spice_mos_full_evaluations_total")
	iters := obs.Default().Counter("spice_newton_iterations_total")
	work := func(f func()) [2]int64 {
		full0, iters0 := full.Value(), iters.Value()
		f()
		return [2]int64{full.Value() - full0, iters.Value() - iters0}
	}
	for _, p := range []*TranProblem{NewCommonSourceTran(), NewFoldedCascodeTran()} {
		x := p.ReferenceDesign()
		xis := sample.PMC{}.Draw(randx.New(8), 1, p.VarDim())
		var tb *testbench
		var err error
		if w := work(func() { tb, err = p.compile(x) }); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		} else if w != [2]int64{} {
			t.Errorf("%s: compile made %d full MOSFET evaluations and %d Newton iterations, want none", p.Name(), w[0], w[1])
		}
		one := work(func() {
			if _, errs := tb.run(xis); errs[0] != nil {
				t.Fatalf("%s: %v", p.Name(), errs[0])
			}
		})
		call := work(func() {
			if _, errs := p.EvaluateBatch(x, xis); errs[0] != nil {
				t.Fatalf("%s: %v", p.Name(), errs[0])
			}
		})
		if one[1] == 0 || call != one {
			t.Errorf("%s: a one-sample call made %d full MOSFET evaluations and %d Newton iterations, its sample %d and %d",
				p.Name(), call[0], call[1], one[0], one[1])
		}
	}
}
