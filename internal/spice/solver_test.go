package spice

import (
	"testing"

	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
)

// solverTestbench builds a circuit exercising every stampable device kind
// (R, C, V with AC drive, I, E, G, NMOS, PMOS): an NMOS mirror driving a
// resistive load, a PMOS mirror, a VCVS buffer into an RC ladder and a VCCS
// feedback branch.
func solverTestbench() *netlist.Circuit {
	nch := &mos.Params{Name: "n", VTH0: 0.5, U0: 0.04, TOX: 7.6e-9, Lambda0: 0.06, Gamma: 0.58, Phi: 0.84, CJ: 9e-4, CGSO: 1.2e-10, CGDO: 1.2e-10}
	pch := &mos.Params{Name: "p", PMOS: true, VTH0: 0.7, U0: 0.015, TOX: 7.6e-9, Lambda0: 0.08, Gamma: 0.4, Phi: 0.8, CJ: 1.1e-3, CGSO: 1e-10, CGDO: 1e-10}

	c := netlist.New("solver equivalence testbench")
	c.AddV("VDD", "vdd", "0", 3.3, 0)
	c.AddI("IB", "vdd", "g1", 40e-6, 0)
	c.AddM("MN1", "g1", "g1", "0", "0", nch, 20e-6, 1e-6, 1)
	c.AddM("MN2", "d2", "g1", "0", "0", nch, 40e-6, 1e-6, 1)
	c.AddR("RL", "vdd", "d2", 40e3)
	c.AddC("CD", "d2", "0", 0.5e-12)
	// Input stage with AC drive.
	c.AddV("VIN", "in", "0", 0.9, 1)
	c.AddM("MN3", "d2", "in", "0", "0", nch, 10e-6, 1e-6, 1)
	// PMOS mirror.
	c.AddI("IBP", "pd", "0", 25e-6, 0)
	c.AddM("MP1", "pd", "pd", "vdd", "vdd", pch, 30e-6, 1e-6, 1)
	c.AddM("MP2", "po", "pd", "vdd", "vdd", pch, 60e-6, 1e-6, 1)
	c.AddR("RP", "po", "0", 30e3)
	// VCVS buffer into an RC ladder.
	c.AddE("E1", "out2", "0", "d2", "0", 2)
	prev := "out2"
	for _, n := range []string{"l1", "l2", "l3", "l4", "l5"} {
		c.AddR("R"+n, prev, n, 10e3)
		c.AddC("C"+n, n, "0", 1e-12)
		prev = n
	}
	// VCCS feedback from the ladder end onto the PMOS output node.
	c.AddG("G1", "po", "0", "l5", "0", 2e-5)
	return c
}

// Repeated solves on one engine must be bit-identical: the symbolic
// factorization and stamp plan are immutable, and scratch reuse may not
// leak state between solves (the determinism guarantee the parallel
// pipeline builds on).
func TestSparseRepeatDeterminism(t *testing.T) {
	eng, err := New(solverTestbench(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	op1, err := eng.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	ac1, err := eng.AC(op1, LogSpace(100, 1e8, 4))
	if err != nil {
		t.Fatal(err)
	}
	op2, err := eng.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	ac2, err := eng.AC(op2, LogSpace(100, 1e8, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range op1.V {
		if op1.V[i] != op2.V[i] {
			t.Fatalf("DC repeat differs at node %d: %v vs %v", i, op1.V[i], op2.V[i])
		}
	}
	for k := range ac1.V {
		for i := range ac1.V[k] {
			if ac1.V[k][i] != ac2.V[k][i] {
				t.Fatalf("AC repeat differs at point %d node %d", k, i)
			}
		}
	}
}
