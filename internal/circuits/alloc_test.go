package circuits

import (
	"errors"
	"runtime"
	"testing"

	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/variation"
)

// perturbedDevice is the per-device builder the behavioural evaluators
// used before their cards moved into stack arrays: the full per-device
// Perturb (inter-die part included) applied to a heap copy of the deck
// card. It is the oracle for perturbCard.
func perturbedDevice(space *variation.Space, xi []float64, slot int, nominal *mos.Params, w, l, m float64) *mos.Device {
	d := space.Perturb(xi, slot, w*l*m*1e12)
	var card mos.Params
	nominal.ApplyTo(&card, &d)
	return &mos.Device{Params: &card, W: w, L: l, M: m}
}

// TestPerturbCardMatchesDeviceOracle pins perturbCard, with the inter-die
// part computed once per sample, to the per-device builder bit for bit on
// every slot of the three behavioural problems, and checks it keeps the
// destination card's name.
func TestPerturbCardMatchesDeviceOracle(t *testing.T) {
	type spaced interface {
		problem.Problem
		Space() *variation.Space
	}
	for _, p := range []spaced{NewCommonSource(), NewFoldedCascode(), NewTelescopic()} {
		space := p.Space()
		rng := randx.New(5)
		for trial := 0; trial < 10; trial++ {
			var xi []float64
			if trial > 0 {
				xi = sample.PMC{}.Draw(rng, 1, p.VarDim())[0]
			}
			inter := space.Inter(xi)
			for slot, s := range space.Devices {
				w, l := 1e-6+rng.Float64()*100e-6, 0.1e-6+rng.Float64()*2e-6
				want := perturbedDevice(space, xi, slot, space.Tech.Model(s.PMOS), w, l, 1)
				card := mos.Params{Name: "keep"}
				perturbCard(&card, space, &inter, xi, slot, w*l*1e12)
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

// spiceEvaluateBudget caps what a one-sample Evaluate of a spice scenario
// allocates: per call it compiles the testbench (netlist, engine, symbolic
// analysis, nominal operating point) and runs one sample through the DC
// solve, the probed AC sweep and, for the transient scenario, the adaptive
// step response. The byte ceilings sit well below what the transient
// result cost when it was preallocated for 1024 points (85.6 KB for
// folded-cascode-tran), and the allocation ceilings below one V row
// allocated per accepted point (452 objects). The 8-sample batch runs its
// transients as one lane group: its ceiling (576 objects measured) leaves
// no room for lane-held state that allocates per step, which would add
// about 70 objects per lane.
var spiceEvaluateBudget = []struct {
	p              interface{ ReferenceDesign() []float64 }
	n              int // samples per call: 1 is Evaluate, more EvaluateBatch
	allocs, kbytes float64
}{
	{NewFoldedCascodeTran(), 1, 410, 70},
	{NewFoldedCascodeTran(), 8, 600, 275},
	{NewCommonSourceSpice(), 1, 200, 20},
}

// TestSpiceEvaluateAllocs pins spiceEvaluateBudget.
func TestSpiceEvaluateAllocs(t *testing.T) {
	for _, b := range spiceEvaluateBudget {
		p := b.p.(problem.Problem)
		x := b.p.ReferenceDesign()
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
		eval()
		allocs := testing.AllocsPerRun(20, eval)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			eval()
		}
		runtime.ReadMemStats(&after)
		kbytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
		t.Logf("%s, %d samples: %v allocations, %.1f KB per call", p.Name(), b.n, allocs, kbytes)
		if allocs > b.allocs {
			t.Errorf("%s, %d samples: a call allocates %v objects, ceiling %v", p.Name(), b.n, allocs, b.allocs)
		}
		if kbytes > b.kbytes {
			t.Errorf("%s, %d samples: a call allocates %.1f KB, ceiling %v KB", p.Name(), b.n, kbytes, b.kbytes)
		}
	}
}
