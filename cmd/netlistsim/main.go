// Command netlistsim runs the built-in MNA circuit simulator: DC operating
// point and, optionally, an AC sweep of one node — on a SPICE-like netlist
// file, or on the testbench netlist of a registered problem.
//
// Usage:
//
//	netlistsim [-ac node] [-fstart F] [-fstop F] [-ppd N]
//	           [-tran node] [-tstop T] [-tstep T] [-tranmode adaptive|fixed|be] file.sp
//	netlistsim -problem NAME [analysis flags]
//
// The netlist format supports R, C, V, I, E, G and M cards plus .model
// lines; see internal/netlist. With -problem, the scenario registry builds
// the named problem's transistor-level testbench at its reference design
// (-h lists the registered problems). With -ac, the magnitude/phase
// response of the named node is printed together with DC gain, unity-gain
// frequency and phase margin. With -tran, the node's step response is
// integrated — by default through the LTE-controlled adaptive trapezoidal
// integrator (-tstep is its initial step; "fixed" pins a uniform
// trapezoidal grid, "be" the seed's fixed backward-Euler one) — and
// reduced to slew rate, delay, 1% settling time and overshoot. Transient
// flags against a -problem scenario without a transient stage are a usage
// error: the command exits with code 2 and lists the tran-capable
// scenarios.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	_ "github.com/eda-go/moheco/internal/circuits" // register the built-in scenarios
	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/spice"
)

func main() {
	var (
		probName = flag.String("problem", "", "simulate a registered problem's testbench instead of a file (see -h)")
		acNode   = flag.String("ac", "", "node for AC transfer analysis")
		fStart   = flag.Float64("fstart", 10, "AC sweep start frequency (Hz)")
		fStop    = flag.Float64("fstop", 1e9, "AC sweep stop frequency (Hz)")
		ppd      = flag.Int("ppd", 10, "AC sweep points per decade")
		trNode   = flag.String("tran", "", "node for transient analysis (PULSE sources drive it)")
		tStop    = flag.Float64("tstop", 1e-6, "transient stop time (s)")
		tStep    = flag.Float64("tstep", 1e-9, "transient step (s; initial step in adaptive mode)")
		trMode   = flag.String("tranmode", "adaptive", "transient integrator: adaptive (LTE-controlled trap), fixed (uniform trap) or be (uniform backward Euler)")
		lanes    = flag.Int("lanes", 0, "lockstep lane count of the sparse batch solver (0 = auto by pattern size; results are identical)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: netlistsim [flags] file.sp | netlistsim -problem NAME [flags]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\n%s", scenario.Usage())
	}
	flag.Parse()
	if *lanes > 0 {
		// Engines read MOHECO_LANES at construction, which happens after
		// main starts; a pure wall-clock knob.
		os.Setenv("MOHECO_LANES", strconv.Itoa(*lanes))
	}

	var (
		ckt     *netlist.Circuit
		nodeset map[string]float64
	)
	switch {
	case *probName != "":
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("-problem and a netlist file are mutually exclusive"))
		}
		sc, err := scenario.Get(*probName)
		if err != nil {
			fatal(err)
		}
		if sc.Netlist == nil {
			fatal(fmt.Errorf("problem %q has no testbench netlist", sc.Name))
		}
		p := sc.New()
		// The transient flags only make sense against a scenario with a
		// transient stage (its testbench arms the step stimulus); on any
		// other scenario they used to be accepted and silently ignored
		// unless -tran was also given (and then integrated a stimulus-free
		// netlist). The flags carry non-zero defaults, so explicit use is
		// detected through flag.Visit.
		if set := explicitTranFlags(); len(set) > 0 && !scenario.TranCapable(p) {
			fmt.Fprintf(os.Stderr, "netlistsim: %s target scenario %q, which has no transient stage\ntran-capable scenarios: %s\n",
				strings.Join(set, "/"), sc.Name, strings.Join(scenario.TranCapableNames(), ", "))
			os.Exit(2)
		}
		x, ok := scenario.ReferenceDesign(p)
		if !ok {
			fatal(fmt.Errorf("problem %q has no reference design", sc.Name))
		}
		ckt, nodeset, err = sc.Netlist(x)
		if err != nil {
			fatal(err)
		}
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		ckt, err = netlist.Parse(f, nil)
		if err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(1)
	}
	eng, err := spice.New(ckt, spice.Options{Nodeset: nodeset})
	if err != nil {
		fatal(err)
	}
	op, err := eng.DCOperatingPoint()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("* %s\nMNA system: %d unknowns\nDC operating point (%d Newton iterations):\n",
		ckt.Title, eng.Size(), op.Iterations)
	for i := 1; i < ckt.NumNodes(); i++ {
		fmt.Printf("  V(%s) = %.6g V\n", ckt.NodeName(i), op.V[i])
	}
	if len(op.MOS) > 0 {
		order := make([]int, len(op.MOS))
		for i := range order {
			order[i] = i
		}
		mosfets := eng.MOSFETs()
		sort.Slice(order, func(a, b int) bool { return mosfets[order[a]].Name < mosfets[order[b]].Name })
		fmt.Println("devices:")
		for _, i := range order {
			m := op.MOS[i]
			fmt.Printf("  %-8s %-10s ID=%.4g A  gm=%.4g S  gds=%.4g S  vdsat=%.3f V\n",
				mosfets[i].Name, m.Region, m.ID, m.Gm, m.Gds, m.VDsat)
		}
	}
	if *trNode != "" {
		var o spice.TranOptions
		switch *trMode {
		case "adaptive":
			o = spice.TranOptions{TStop: *tStop, Step: *tStep, Adaptive: true}
		case "fixed":
			o = spice.TranOptions{TStop: *tStop, Step: *tStep, Method: spice.Trap}
		case "be":
			o = spice.TranOptions{TStop: *tStop, Step: *tStep, Method: spice.BackwardEuler}
		default:
			fatal(fmt.Errorf("unknown -tranmode %q (adaptive | fixed | be)", *trMode))
		}
		tr, err := eng.TransientOpts(op, o)
		if err != nil {
			fatal(err)
		}
		wave, err := tr.VNode(ckt, *trNode)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("transient response at node %q (%s, %d points, %d rejected steps):\n",
			*trNode, *trMode, len(tr.Times), tr.Rejected)
		stride := len(tr.Times) / 40
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(tr.Times); i += stride {
			fmt.Printf("  t=%-12.4g v=%.6g\n", tr.Times[i], wave[i])
		}
		// Time-domain measures against the first pulse edge, V or I driven
		// (t0 = 0 when no source carries a pulse).
		t0 := 0.0
		for _, d := range ckt.Devices {
			if p := netlist.DevicePulse(d); p != nil {
				t0 = p.Delay
				break
			}
		}
		if st, err := measure.NewStep(tr.Times, wave, t0); err == nil {
			if sr, err := st.SlewRate(); err == nil {
				fmt.Printf("slew rate: %.4g V/s\n", sr)
			}
			if d, err := st.Delay(); err == nil {
				fmt.Printf("delay (50%%): %.4g s\n", d)
			}
			if ts, err := st.SettlingTime(0.01); err == nil {
				fmt.Printf("1%% settling: %.4g s\n", ts)
			} else {
				fmt.Println("1% settling: did not settle in window")
			}
			fmt.Printf("overshoot: %.2f%%\n", 100*st.Overshoot())
		}
	}
	if *acNode == "" {
		return
	}
	node, ok := ckt.FindNode(*acNode)
	if !ok {
		fatal(fmt.Errorf("spice: unknown node %q", *acNode))
	}
	freqs := spice.LogSpace(*fStart, *fStop, *ppd)
	// The whole table is printed, so the probe sweeps the full range.
	h, err := eng.ACProbe(op, freqs, spice.Probe{Node: node})
	if err != nil {
		fatal(err)
	}
	bode := measure.NewBode(freqs, h)
	fmt.Printf("AC response at node %q:\n", *acNode)
	fmt.Printf("  %-14s %-10s %s\n", "freq (Hz)", "mag (dB)", "phase (deg)")
	for i, f := range freqs {
		fmt.Printf("  %-14.6g %-10.3f %.2f\n", f, bode.MagDB[i], bode.Phase[i])
	}
	fmt.Printf("DC gain: %.2f dB\n", bode.DCGainDB())
	if fu, err := bode.UnityCrossing(); err == nil {
		pm, _ := bode.PhaseMargin()
		fmt.Printf("unity-gain frequency: %.4g Hz\nphase margin: %.1f deg\n", fu, pm)
	} else {
		fmt.Println("no unity-gain crossing in the swept range")
	}
}

// explicitTranFlags returns the transient-analysis flags the user passed on
// the command line (the flags keep non-zero defaults, so presence — not
// value — is what distinguishes explicit use).
func explicitTranFlags() []string {
	var set []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "tran", "tstop", "tstep", "tranmode":
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netlistsim:", err)
	os.Exit(1)
}
