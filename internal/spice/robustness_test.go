package spice

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/eda-go/moheco/internal/linalg/sparse"
	"github.com/eda-go/moheco/internal/netlist"
)

// A cold start on a bias-chain-heavy circuit must converge through gmin
// stepping even without a nodeset.
func TestColdStartMirrorChain(t *testing.T) {
	c := netlist.New("mirror chain")
	p := nmosCard()
	c.AddV("VDD", "vdd", "0", 3.3, 0)
	c.AddI("IB", "vdd", "d1", 20e-6, 0)
	c.AddM("M1", "d1", "d1", "0", "0", p, 10e-6, 1e-6, 1)
	c.AddM("M2", "d2", "d1", "0", "0", p, 40e-6, 1e-6, 1)
	c.AddR("R2", "vdd", "d2", 10e3)
	c.AddM("M3", "d3", "d1", "0", "0", p, 20e-6, 1e-6, 1)
	c.AddR("R3", "vdd", "d3", 20e3)
	e, op := solveDC(t, c)
	// M2 mirrors 4x the reference through a 10k load.
	i2 := mosNamed(t, e, op, "M2").ID
	if i2 < 60e-6 || i2 > 110e-6 {
		t.Errorf("mirror output current = %v", i2)
	}
}

func TestNodesetSeedsSolution(t *testing.T) {
	c := netlist.New("seeded divider")
	c.AddV("V1", "in", "0", 2.0, 0)
	c.AddR("R1", "in", "out", 1e3)
	c.AddR("R2", "out", "0", 1e3)
	e, err := New(c, Options{Nodeset: map[string]float64{"out": 1.0, "bogus": 9}})
	if err != nil {
		t.Fatal(err)
	}
	op, err := e.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := op.VNode(c, "out")
	if math.Abs(v-1.0) > 1e-6 {
		t.Errorf("out = %v", v)
	}
	// A near-exact nodeset should converge in very few iterations.
	if op.Iterations > 10 {
		t.Errorf("nodeset solve took %d iterations", op.Iterations)
	}
}

// Negative supply: the source/drain swap logic must handle PMOS devices in
// both orientations.
func TestPMOSTriodeAndSwap(t *testing.T) {
	c := netlist.New("pmos switch")
	p := pmosCard()
	c.AddV("VDD", "vdd", "0", 3.3, 0)
	// PMOS with gate grounded: fully on, operating deep in triode through
	// a small load.
	c.AddM("M1", "out", "0", "vdd", "vdd", p, 50e-6, 0.5e-6, 1)
	c.AddR("RL", "out", "0", 1e3)
	e, op := solveDC(t, c)
	v, _ := op.VNode(c, "out")
	if v < 2.5 {
		t.Errorf("switch output = %v, want near VDD", v)
	}
	if r := mosNamed(t, e, op, "M1").Region; r.String() != "triode" {
		t.Errorf("region = %v, want triode", r)
	}
}

// The engine must refuse malformed circuits rather than crash.
func TestEngineRejectsInvalidCircuit(t *testing.T) {
	c := netlist.New("bad")
	c.AddR("R1", "a", "b", -1) // negative resistance fails validation
	if _, err := New(c, Options{}); err == nil {
		t.Error("invalid circuit accepted")
	}
}

// A loop of voltage-defined branches leaves the MNA pattern with no perfect
// matching, so the Jacobian is singular for every value assignment — even
// when, as here, the sources in the loop agree. New must reject the
// netlist, naming the device whose branch row has no pivot.
func TestStructurallySingularNetlistRejected(t *testing.T) {
	vloop := netlist.New("parallel voltage sources")
	vloop.AddV("V1", "a", "0", 1, 0)
	vloop.AddV("V2", "a", "0", 1, 0)
	vloop.AddR("R1", "a", "0", 1e3)

	eloop := netlist.New("parallel VCVS")
	eloop.AddV("VIN", "in", "0", 1, 0)
	eloop.AddR("RIN", "in", "0", 1e3)
	eloop.AddE("E1", "out", "0", "in", "0", 2)
	eloop.AddE("E2", "out", "0", "in", "0", 2)
	eloop.AddR("RL", "out", "0", 1e3)

	for _, tc := range []struct {
		ckt *netlist.Circuit
		dev string
	}{{vloop, "V2"}, {eloop, "E2"}} {
		_, err := New(tc.ckt, Options{})
		if !errors.Is(err, sparse.ErrStructural) {
			t.Errorf("%s: New error %v, want sparse.ErrStructural", tc.ckt.Title, err)
			continue
		}
		if !strings.Contains(err.Error(), "branch of "+tc.dev+" ") {
			t.Errorf("%s: error %q does not name %s", tc.ckt.Title, err, tc.dev)
		}
	}
}

// AC on a floating node stays solvable thanks to the gmin leak.
func TestACFloatingNode(t *testing.T) {
	c := netlist.New("float")
	c.AddV("VIN", "in", "0", 0, 1)
	c.AddR("R1", "in", "mid", 1e3)
	c.AddC("C1", "mid", "out", 1e-12)
	c.AddR("R2", "out", "0", 1e6)
	e, op := solveDC(t, c)
	ac, err := e.AC(op, []float64{1e3, 1e6, 1e9})
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	h, _ := ac.VNode(c, "out")
	// High-pass behaviour: response grows with frequency.
	if !(cAbs(h[0]) < cAbs(h[1]) && cAbs(h[1]) < cAbs(h[2])+1e-9) {
		t.Errorf("not high-pass: %v", h)
	}
}

func cAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}
