package circuits

import (
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
