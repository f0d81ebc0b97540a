package spice_test

import (
	"fmt"
	"log"
	"strings"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/spice"
)

// The built-in MNA circuit simulator, the substrate standing in for HSPICE,
// on the quickstart common-source stage: netlist construction, the round
// trip through the text netlist format, a DC operating point, an AC sweep
// and its Bode post-processing, next to the behavioural evaluator the
// yield loops use.
func Example() {
	p := circuits.NewCommonSource()
	ckt, err := p.CommonSourceNetlist(p.ReferenceDesign())
	if err != nil {
		log.Fatal(err)
	}

	var b strings.Builder
	if err := netlist.Write(&b, ckt); err != nil {
		log.Fatal(err)
	}
	fmt.Print(b.String())
	reparsed, err := netlist.Parse(strings.NewReader(b.String()), ckt.Models)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parser round trip: %d devices preserved\n", len(reparsed.Devices))

	eng, err := spice.New(ckt, spice.Options{})
	if err != nil {
		log.Fatal(err)
	}
	op, err := eng.DCOperatingPoint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DC operating point (%d Newton iterations):\n", op.Iterations)
	for _, n := range []string{"vdd", "bp", "in", "out"} {
		v, _ := op.VNode(ckt, n)
		fmt.Printf("  V(%-3s) = %.4f V\n", n, v)
	}
	for i, d := range eng.MOSFETs() {
		m := op.MOS[i]
		fmt.Printf("  %-3s %-10s ID=%.4g A gm=%.4g S\n", d.Name, m.Region, m.ID, m.Gm)
	}

	freqs := spice.LogSpace(100, 3e9, 10)
	ac, err := eng.AC(op, freqs)
	if err != nil {
		log.Fatal(err)
	}
	h, err := ac.VNode(ckt, "out")
	if err != nil {
		log.Fatal(err)
	}
	bode := measure.NewBode(freqs, h)
	fmt.Printf("AC at the output: DC gain %.2f dB\n", bode.DCGainDB())
	if fu, err := bode.UnityCrossing(); err == nil {
		pm, _ := bode.PhaseMargin()
		fmt.Printf("  unity-gain frequency %.3g Hz, phase margin %.1f deg\n", fu, pm)
	}

	// The behavioural evaluator agrees within the level-1 vs behavioural
	// approximations.
	perf, err := p.Evaluate(p.ReferenceDesign(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("behavioural model: A0 = %.2f dB, GBW = %.3g Hz\n", perf[0], perf[1])
	// Output:
	// * common-source stage
	// VDD vdd 0 3.3
	// IB bp 0 5u
	// MB bp bp vdd vdd pch W=7.5u L=1u M=1
	// M2 out bp vdd vdd pch W=60u L=1u M=1
	// VIN in 0 676.0078254m ac 1
	// M1 out in 0 0 nch W=30u L=1u M=1
	// CL out 0 1p
	// .end
	// parser round trip: 7 devices preserved
	// DC operating point (34 Newton iterations):
	//   V(vdd) = 3.3000 V
	//   V(bp ) = 2.5189 V
	//   V(in ) = 0.6760 V
	//   V(out) = 0.3981 V
	//   MB  saturation ID=5e-06 A gm=7.63e-05 S
	//   M2  saturation ID=4.711e-05 A gm=0.0007189 S
	//   M1  saturation ID=4.711e-05 A gm=0.0007478 S
	// AC at the output: DC gain 41.66 dB
	//   unity-gain frequency 1.01e+08 Hz, phase margin 92.8 deg
	// behavioural model: A0 = 39.05 dB, GBW = 8.53e+07 Hz
}
