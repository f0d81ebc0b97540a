package circuits

import (
	"math"
	"reflect"
	"testing"

	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/spice"
)

// The behavioural evaluator and the MNA engine share device physics; on the
// quickstart stage the two must agree on gain and bandwidth within the
// accuracy of the behavioural approximations.
func TestCommonSourceAgainstSpice(t *testing.T) {
	p := NewCommonSource()
	x := p.ReferenceDesign()
	perf, err := p.Evaluate(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := p.CommonSourceNetlist(x)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := spice.New(ckt, spice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := eng.DCOperatingPoint()
	if err != nil {
		t.Fatalf("dc: %v", err)
	}
	// The behavioural model assumes the output sits near VDD/2; the real
	// operating point should be in the same region (output not railed).
	vout, err := op.VNode(ckt, "out")
	if err != nil {
		t.Fatal(err)
	}
	if vout < 0.25 || vout > 3.0 {
		t.Fatalf("netlist output railed: vout = %v", vout)
	}
	ac, err := eng.AC(op, spice.LogSpace(100, 3e9, 10))
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	h, err := ac.VNode(ckt, "out")
	if err != nil {
		t.Fatal(err)
	}
	bode := measure.NewBode(ac.Freqs, h)
	gainDB := bode.DCGainDB()
	gbw, err := bode.UnityCrossing()
	if err != nil {
		t.Fatalf("gbw: %v", err)
	}
	// Behavioural vs transistor-level: gain within 3 dB, GBW within 40%
	// (the netlist sees the true operating point, not the VDD/2 idealization).
	if math.Abs(gainDB-perf[0]) > 3 {
		t.Errorf("gain: behavioural %.2f dB vs spice %.2f dB", perf[0], gainDB)
	}
	if r := gbw / perf[1]; r < 0.6 || r > 1.67 {
		t.Errorf("GBW: behavioural %.3g vs spice %.3g (ratio %.2f)", perf[1], gbw, r)
	}
}

// The folded-cascode half-circuit netlist must converge in DC with every
// device saturated, and show gain and GBW in the same region as the
// behavioural model.
func TestFoldedCascodeAgainstSpice(t *testing.T) {
	p := NewFoldedCascode()
	// A deliberately strong-inversion sizing: the behavioural model's
	// weak-inversion gm cap and VDsat floor are inactive here, so the two
	// models share the same square-law physics and must agree closely.
	x := []float64{90e-6, 76e-6, 60e-6, 0.50e-6, 46e-6, 36e-6, 82e-6, 98e-6, 1.45e-6, 0.92e-6}
	perf, err := p.Evaluate(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	ckt, nodeset, err := p.FoldedCascodeNetlist(x)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := spice.New(ckt, spice.Options{Nodeset: nodeset})
	if err != nil {
		t.Fatal(err)
	}
	op, err := eng.DCOperatingPoint()
	if err != nil {
		t.Fatalf("dc did not converge: %v", err)
	}
	for _, name := range []string{"M1", "M3", "M5", "M7", "M9"} {
		i, ok := eng.MOSIndex(name)
		if !ok {
			t.Fatalf("missing device %s", name)
		}
		mop := op.MOS[i]
		if mop.Region.String() != "saturation" {
			t.Errorf("%s region = %v (ID=%.3g)", name, mop.Region, mop.ID)
		}
	}
	ac, err := eng.AC(op, spice.LogSpace(100, 1e9, 10))
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	h, err := ac.VNode(ckt, "out")
	if err != nil {
		t.Fatal(err)
	}
	bode := measure.NewBode(ac.Freqs, h)
	gainDB := bode.DCGainDB()
	// The half-circuit netlist lands several dB higher than the
	// behavioural model because the level-1 ro carries the (1+λ·Vds) CLM
	// numerator (×1.3–1.5 across the three output resistances) and sees
	// body effect at the exact bias points. Require agreement within 10.5
	// dB — both must sit in the same high-gain region.
	if math.Abs(gainDB-perf[0]) > 10.5 {
		t.Errorf("gain: behavioural %.1f dB vs spice %.1f dB", perf[0], gainDB)
	}
	gbw, err := bode.UnityCrossing()
	if err != nil {
		t.Fatalf("gbw: %v", err)
	}
	if r := gbw / perf[1]; r < 0.5 || r > 2 {
		t.Errorf("GBW: behavioural %.3g vs spice %.3g", perf[1], gbw)
	}
}

// Each testbench has one netlist builder: on every spice scenario, the
// compiled testbench at ξ = nil is the nominal netlist — the same devices
// in the same order, sources included, over the same node table, with the
// perturbed cards equal to the deck's models but for their names — and it
// solves to a bit-identical DC operating point.
func TestCompiledTestbenchIsNominalNetlist(t *testing.T) {
	for _, p := range []interface {
		compile([]float64) (*testbench, error)
		Netlist([]float64) (*netlist.Circuit, map[string]float64, error)
		ReferenceDesign() []float64
		Name() string
	}{NewCommonSourceSpice(), NewFoldedCascodeSpice(), NewCommonSourceTran(), NewFoldedCascodeTran()} {
		x := p.ReferenceDesign()
		nom, nodeset, err := p.Netlist(x)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		tb, err := p.compile(x)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		tb.setSample(nil)
		if got, want := tb.ckt.NumNodes(), nom.NumNodes(); got != want {
			t.Fatalf("%s: compiled testbench has %d nodes, nominal netlist %d", p.Name(), got, want)
		}
		for i := 0; i < nom.NumNodes(); i++ {
			if got, want := tb.ckt.NodeName(i), nom.NodeName(i); got != want {
				t.Errorf("%s: node %d is %q compiled, %q nominal", p.Name(), i, got, want)
			}
		}
		if got, want := len(tb.ckt.Devices), len(nom.Devices); got != want {
			t.Fatalf("%s: compiled testbench has %d devices, nominal netlist %d", p.Name(), got, want)
		}
		for i, d := range nom.Devices {
			if !sameDevice(tb.ckt.Devices[i], d) {
				t.Errorf("%s: device %d is %+v compiled, %+v nominal", p.Name(), i, tb.ckt.Devices[i], d)
			}
		}

		eng, err := spice.New(nom, spice.Options{Nodeset: nodeset})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		want, err := eng.DCOperatingPoint()
		if err != nil {
			t.Fatalf("%s: nominal DC: %v", p.Name(), err)
		}
		got, err := tb.eng.DCOperatingPoint()
		if err != nil {
			t.Fatalf("%s: compiled DC: %v", p.Name(), err)
		}
		if got.Iterations != want.Iterations || !sameBits(got.V, want.V) || !sameBits(got.BranchI, want.BranchI) ||
			!reflect.DeepEqual(got.MOS, want.MOS) {
			t.Errorf("%s: compiled DC operating point %+v, nominal %+v", p.Name(), *got, *want)
		}
	}
}

// sameDevice compares two netlist devices by value; transistors compare
// their model cards by value too, names aside.
func sameDevice(a, b netlist.Device) bool {
	ma, aok := a.(*netlist.Mosfet)
	mb, bok := b.(*netlist.Mosfet)
	if !aok || !bok {
		return reflect.DeepEqual(a, b)
	}
	ca, cb := *ma, *mb
	pa, pb := *ca.Dev.Params, *cb.Dev.Params
	pa.Name, pb.Name = "", ""
	ca.Dev.Params, cb.Dev.Params = nil, nil
	return ca == cb && pa == pb
}
