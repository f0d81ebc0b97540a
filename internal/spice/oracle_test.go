package spice_test

import (
	"math"
	"math/cmplx"
	"testing"

	_ "github.com/eda-go/moheco/internal/circuits" // register the built-in scenarios
	"github.com/eda-go/moheco/internal/linalg"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/spice"
)

// checkDenseOracle requires the engine's sparse LU, which factors under a
// static pivot order, to solve the systems of a converged operating point
// as the pivoting dense LU does, to 1e-9: the DC Jacobian there and the AC
// system at three frequencies across the sweep range.
func checkDenseOracle(t *testing.T, eng *spice.Engine, op *spice.OPResult) {
	t.Helper()
	const tol = 1e-9
	jac, dense := eng.DCJacobian(op)
	// A right-hand side that excites every unknown: at the operating point
	// itself the Newton residual is all but zero.
	rhs := make([]float64, eng.Size())
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) + 1)
	}
	want, err := linalg.SolveSystem(dense, rhs)
	if err != nil {
		t.Fatalf("dense DC solve: %v", err)
	}
	got := append([]float64(nil), rhs...)
	if err := jac.FactorSolve(got)[0]; err != nil {
		t.Fatalf("sparse DC solve: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Errorf("DC x[%d]: sparse %.15g dense %.15g", i, got[i], want[i])
		}
	}

	for _, f := range []float64{1e3, 1e6, 1e9} {
		y, dense, drive := eng.ACSystem(op, f)
		want, err := linalg.CSolve(dense, drive)
		if err != nil {
			t.Fatalf("dense AC solve at %g Hz: %v", f, err)
		}
		got := append([]complex128(nil), drive...)
		if err := y.FactorSolve(got)[0]; err != nil {
			t.Fatalf("sparse AC solve at %g Hz: %v", f, err)
		}
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > tol*(1+cmplx.Abs(want[i])) {
				t.Errorf("AC %g Hz x[%d]: sparse %v dense %v", f, i, got[i], want[i])
			}
		}
	}
}

// The sparse solves must match the dense oracle on the every-device
// testbench: it stamps the E, G and I devices the scenario testbenches
// lack.
func TestSparseMatchesDense(t *testing.T) {
	eng, err := spice.New(spice.SolverTestbench(), spice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := eng.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	checkDenseOracle(t, eng, op)
}

// The sparse solves must match the dense oracle on the testbench of every
// registered scenario that has one, at its reference design, so a newly
// registered circuit is covered automatically.
func TestSolverEquivalencePerScenario(t *testing.T) {
	for _, sc := range scenario.List() {
		if sc.Netlist == nil {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			x, ok := scenario.ReferenceDesign(sc.New())
			if !ok {
				t.Fatal("no reference design")
			}
			ckt, nodeset, err := sc.Netlist(x)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := spice.New(ckt, spice.Options{Nodeset: nodeset})
			if err != nil {
				t.Fatal(err)
			}
			op, err := eng.DCOperatingPoint()
			if err != nil {
				t.Fatal(err)
			}
			checkDenseOracle(t, eng, op)
		})
	}
}
