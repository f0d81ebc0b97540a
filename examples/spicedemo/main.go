// SPICE demo: exercises the built-in MNA circuit simulator — the substrate
// standing in for HSPICE in this reproduction — on the quickstart
// common-source stage: netlist construction, DC operating point, AC sweep
// and Bode post-processing, plus the round trip through the text netlist
// format.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/spice"
)

func main() {
	p := circuits.NewCommonSource()
	ckt, err := p.CommonSourceNetlist(p.ReferenceDesign())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("netlist (text form):")
	var b strings.Builder
	if err := netlist.Write(&b, ckt); err != nil {
		log.Fatal(err)
	}
	fmt.Println(b.String())

	// Round trip through the parser.
	reparsed, err := netlist.Parse(strings.NewReader(b.String()), ckt.Models)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parser round trip: %d devices preserved\n\n", len(reparsed.Devices))

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
	fmt.Printf("\nAC analysis at the output:\n  DC gain %.2f dB\n", bode.DCGainDB())
	if fu, err := bode.UnityCrossing(); err == nil {
		pm, _ := bode.PhaseMargin()
		fmt.Printf("  unity-gain frequency %.3g Hz\n  phase margin %.1f deg\n", fu, pm)
	}

	// Compare with the behavioural evaluator used by the yield loops.
	perf, err := p.Evaluate(p.ReferenceDesign(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbehavioural model: A0 = %.2f dB, GBW = %.3g Hz\n", perf[0], perf[1])
	fmt.Println("(the two agree within the level-1 vs behavioural approximations)")
	os.Exit(0)
}
