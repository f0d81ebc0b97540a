package corners

import (
	"errors"
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/pdk"
)

// lineProblem passes when x[0] − Σσᵢ·ξᵢ ≥ 0 over a 2-variable inter space.
type lineProblem struct{ fail bool }

func (l *lineProblem) Name() string { return "line" }
func (l *lineProblem) Dim() int     { return 1 }
func (l *lineProblem) Bounds() ([]float64, []float64) {
	return []float64{0}, []float64{10}
}
func (l *lineProblem) Specs() []constraint.Spec {
	return []constraint.Spec{{Name: "m", Sense: constraint.AtLeast, Bound: 0}}
}
func (l *lineProblem) VarDim() int { return 2 }
func (l *lineProblem) Evaluate(x, xi []float64) ([]float64, error) {
	if l.fail {
		return nil, errors.New("boom")
	}
	v := x[0]
	if xi != nil {
		v -= 0.5*xi[0] + 0.25*xi[1]
	}
	return []float64{v}, nil
}

func TestClassicCorners(t *testing.T) {
	g := &Generator{Sigma: 3, InterDim: 2}
	p := &lineProblem{}
	cs := g.Classic(p, func(i int) bool { return i == 0 })
	if len(cs) != 5 {
		t.Fatalf("corners = %d, want 5", len(cs))
	}
	if cs[0].Name != "TT" {
		t.Errorf("first corner = %s", cs[0].Name)
	}
	for _, v := range cs[0].Xi {
		if v != 0 {
			t.Error("TT must be the nominal point")
		}
	}
	// FF: both halves at −σ. SS: both at +σ. FS: N at −σ, P at +σ.
	find := func(name string) Corner {
		for _, c := range cs {
			if c.Name == name {
				return c
			}
		}
		t.Fatalf("corner %s missing", name)
		return Corner{}
	}
	if ff := find("FF"); ff.Xi[0] != -3 || ff.Xi[1] != -3 {
		t.Errorf("FF = %v", ff.Xi)
	}
	if ss := find("SS"); ss.Xi[0] != 3 || ss.Xi[1] != 3 {
		t.Errorf("SS = %v", ss.Xi)
	}
	if fs := find("FS"); fs.Xi[0] != -3 || fs.Xi[1] != 3 {
		t.Errorf("FS = %v", fs.Xi)
	}
}

func TestWorstCaseAndAllPass(t *testing.T) {
	g := &Generator{Sigma: 3, InterDim: 2}
	p := &lineProblem{}
	cs := g.Classic(p, func(i int) bool { return i == 0 })
	// Worst corner for x[0]−0.5ξ0−0.25ξ1 is SS: x − 0.5·3 − 0.25·3 = x−2.25.
	w, err := WorstCase(p, []float64{2.0}, cs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-0.25) > 1e-12 {
		t.Errorf("worst violation = %v, want 0.25", w)
	}
	if w, err := WorstCase(p, []float64{2.25}, cs); err != nil || w != 0 {
		t.Errorf("x=2.25 should pass all corners: %v %v", w, err)
	}
	if _, err := WorstCase(&lineProblem{fail: true}, []float64{1}, cs); err == nil {
		t.Error("evaluation error should surface")
	}
}

func TestOptimizeOnLineProblem(t *testing.T) {
	g := &Generator{Sigma: 3, InterDim: 2}
	p := &lineProblem{}
	cs := g.Classic(p, func(i int) bool { return i == 0 })
	// Minimize x[0] (the performance itself) subject to corner feasibility:
	// the optimum is x = 2.25, the corner-feasibility boundary.
	res, err := Optimize(p, cs, OptimizeOptions{
		ObjectiveIndex: 0,
		PopSize:        20,
		MaxGens:        80,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CornersPass {
		t.Fatal("optimum should satisfy all corners")
	}
	if math.Abs(res.X[0]-2.25) > 0.05 {
		t.Errorf("corner optimum x = %v, want ≈ 2.25", res.X[0])
	}
	if res.Evaluations <= 0 {
		t.Error("no evaluations counted")
	}
}

func TestGeneratorOnRealDeck(t *testing.T) {
	p := circuits.NewFoldedCascode()
	tech := pdk.C035()
	g := &Generator{Sigma: 3, InterDim: len(tech.Inter)}
	cs := g.Classic(p, func(i int) bool { return true })
	for _, c := range cs {
		if len(c.Xi) != p.VarDim() {
			t.Fatalf("%s: xi length %d", c.Name, len(c.Xi))
		}
		// Corners must be evaluable.
		if _, err := p.Evaluate(p.ReferenceDesign(), c.Xi); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		// Intra-die coordinates stay zero.
		for i := len(tech.Inter); i < len(c.Xi); i++ {
			if c.Xi[i] != 0 {
				t.Fatalf("%s: intra coordinate %d displaced", c.Name, i)
			}
		}
	}
}
