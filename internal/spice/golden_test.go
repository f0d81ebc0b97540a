package spice

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/eda-go/moheco/internal/netlist"
)

// -update regenerates testdata/engine_goldens.json from the current code.
// The committed file is the stored, independent reference of the engine's
// output bits: every DC, AC, probed and transient result of two testbenches,
// at several lockstep widths, with and without a nodeset. Regenerate it only
// when a change is meant to alter results.
var updateEngineGoldens = flag.Bool("update", false, "rewrite testdata/engine_goldens.json")

const engineGoldenPath = "testdata/engine_goldens.json"

// engineGolden fingerprints one analysis of one sample: the Newton
// iterations (DC) or rejected steps (adaptive transient), the error text,
// and an FNV-1a digest of the IEEE-754 bits of every value the analysis
// returned, with their count.
type engineGolden struct {
	Key    string `json:"key"`
	Iters  int    `json:"iters"`
	Err    string `json:"err,omitempty"`
	Len    int    `json:"len"`
	Digest string `json:"digest"`
}

// goldenHash accumulates the bits of an analysis result.
type goldenHash struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
	n int
}

func newGoldenHash() *goldenHash { return &goldenHash{h: fnv.New64a()} }

func (g *goldenHash) float(v float64) {
	var b [8]byte
	u := math.Float64bits(v)
	for i := range b {
		b[i] = byte(u >> (8 * i))
	}
	g.h.Write(b[:])
	g.n++
}

func (g *goldenHash) floats(vs []float64) {
	for _, v := range vs {
		g.float(v)
	}
}

func (g *goldenHash) phasors(vs []complex128) {
	for _, v := range vs {
		g.float(real(v))
		g.float(imag(v))
	}
}

func (g *goldenHash) entry(key string, iters int, err error) engineGolden {
	e := engineGolden{Key: key, Iters: iters, Len: g.n, Digest: fmt.Sprintf("%016x", g.h.Sum64())}
	if err != nil {
		e.Err = err.Error()
	}
	return e
}

// goldenBench is one testbench of the golden harness: a circuit, the
// per-sample state its samples install, and the analyses run on it.
type goldenBench struct {
	name     string
	ckt      *netlist.Circuit
	opts     Options // Lanes and Nodeset are set per case
	nodeset  map[string]float64
	samples  int
	set      func(s int) // installs sample s
	freqs    []float64
	probe    string
	mosFree  bool // AC(nil, …) is meaningful
	tranOpts map[string]TranOptions
}

// steppingBench is a MOS-free testbench whose node x sits at IX·RX: a far
// node the damped Newton (0.5 V per iteration) reaches from the zero seed
// only within a bounded number of iterations. With MaxIter = 5 a small
// target converges on the gmin ladder, a larger one only through source
// stepping, and a still larger one (or a NaN resistor) not at all — the
// cold-DC outcomes the harness must cover.
func steppingBench() *goldenBench {
	c := netlist.New("golden stepping bench")
	c.AddV("VDD", "vdd", "0", 1.5, 0)
	vin := c.AddV("VIN", "in", "0", 0.5, 1)
	vin.Pulse = &netlist.Pulse{V1: 0.5, V2: 1, Delay: 2e-9, Rise: 1e-9, Fall: 1e-9, Width: 10e-9}
	c.AddR("RIN", "in", "a", 1e3)
	c.AddC("CA", "a", "0", 1e-12)
	g1 := c.AddG("G1", "o", "0", "a", "0", 1e-4)
	c.AddR("RO", "o", "vdd", 20e3)
	c.AddC("CO", "o", "0", 2e-12)
	ix := c.AddI("IX", "0", "x", 6e-3, 0)
	rx := c.AddR("RX", "x", "0", 100)
	c.AddC("CX", "x", "0", 1e-12)
	c.AddE("E1", "y", "0", "x", "0", 0.5)
	c.AddR("RY", "y", "vdd", 10e3)
	// Target V(x) per sample; NaN makes RX NaN.
	targets := []float64{0.6, 1.2, 3.0, 2.6, 9.0, math.NaN(), 1.8, 25.0}
	return &goldenBench{
		name:    "stepping",
		ckt:     c,
		opts:    Options{MaxIter: 5},
		nodeset: map[string]float64{"x": 2.6, "o": 1.0},
		samples: len(targets),
		set: func(s int) {
			g1.Gm = 1e-4 * (1 + 0.1*float64(s))
			if math.IsNaN(targets[s]) {
				ix.DC, rx.R = 6e-3, math.NaN()
				return
			}
			ix.DC, rx.R = targets[s]/100, 100
			// A current step that multiplies V(x) by 2.5: on a fixed grid the
			// damped Newton cannot follow it within MaxIter, while the
			// adaptive controller rejects and retries smaller steps.
			ix.Pulse = &netlist.Pulse{V1: ix.DC, V2: 2.5 * ix.DC, Delay: 2e-9, Rise: 1e-9, Fall: 1e-9, Width: 5e-9}
		},
		freqs:   LogSpace(1e3, 1e10, 4),
		probe:   "o",
		mosFree: true,
		tranOpts: map[string]TranOptions{
			"tran-be":       {TStop: 20e-9, Step: 1e-9, Method: BackwardEuler},
			"tran-trap":     {TStop: 20e-9, Step: 1e-9},
			"tran-adaptive": {TStop: 20e-9, Step: 5e-9, Adaptive: true},
		},
	}
}

// mosBench is the every-device solver testbench with a pulsed input and a
// per-sample load resistor; sample 5's load is NaN, so it fails.
func mosBench() *goldenBench {
	c := solverTestbench()
	rl := resistorNamed(c, "RL")
	for _, d := range c.Devices {
		if v, ok := d.(*netlist.VSource); ok && v.Name == "VIN" {
			v.Pulse = &netlist.Pulse{V1: 0.9, V2: 1.0, Delay: 1e-9, Rise: 1e-9, Fall: 1e-9, Width: 5e-9}
		}
	}
	base := rl.R
	return &goldenBench{
		name:    "mos",
		ckt:     c,
		nodeset: map[string]float64{"g1": 0.9, "d2": 1.5, "pd": 2.3},
		samples: 8,
		set: func(s int) {
			rl.R = base * (1 + 0.07*float64(s))
			if s == 5 {
				rl.R = math.NaN()
			}
		},
		freqs: LogSpace(1e3, 1e10, 5),
		probe: "d2",
		tranOpts: map[string]TranOptions{
			"tran-be":       {TStop: 10e-9, Step: 0.5e-9, Method: BackwardEuler},
			"tran-trap":     {TStop: 10e-9, Step: 0.5e-9},
			"tran-adaptive": {TStop: 10e-9, Adaptive: true},
		},
	}
}

func resistorNamed(c *netlist.Circuit, name string) *netlist.Resistor {
	for _, d := range c.Devices {
		if r, ok := d.(*netlist.Resistor); ok && r.Name == name {
			return r
		}
	}
	panic("no resistor " + name)
}

// goldenWidths are the lockstep widths every case runs at; 1 runs the
// point-wise API.
var goldenWidths = []int{1, 3, 4, 8}

// engineRun is one engine configuration of the harness.
type engineRun struct {
	bench   *goldenBench
	nodeset bool
	k       int
}

// prefix keys the run's goldens. Its "sparse" segment names the one linear
// solver; it stays so the committed keys stay valid.
func (r engineRun) prefix() string {
	ns := "plain"
	if r.nodeset {
		ns = "nodeset"
	}
	return fmt.Sprintf("%s/sparse/%s", r.bench.name, ns)
}

// goldenOutcomes tallies the cold-DC and warm-start outcomes of the
// harness by iteration count (see classify).
type goldenOutcomes map[string]int

// run executes every analysis of the configuration and returns the
// fingerprints keyed by prefix/sample/analysis — independent of the width,
// which is the lane determinism contract the harness also checks.
func (r engineRun) run(t *testing.T, out goldenOutcomes) map[string]engineGolden {
	t.Helper()
	b := r.bench
	o := b.opts
	o.Lanes = r.k
	if r.nodeset {
		o.Nodeset = b.nodeset
	}
	eng, err := New(b.ckt, o)
	if err != nil {
		t.Fatal(err)
	}
	probeNode, ok := b.ckt.FindNode(b.probe)
	if !ok {
		t.Fatalf("no probe node %q", b.probe)
	}
	got := map[string]engineGolden{}
	put := func(e engineGolden) {
		if _, dup := got[e.Key]; dup {
			t.Fatalf("duplicate golden key %s", e.Key)
		}
		got[e.Key] = e
	}
	key := func(s int, analysis string) string {
		return fmt.Sprintf("%s/s%d/%s", r.prefix(), s, analysis)
	}
	opEntry := func(s int, analysis string, op *OPResult, err error) engineGolden {
		h := newGoldenHash()
		iters := 0
		if op != nil {
			h.floats(op.V)
			h.floats(op.BranchI)
			iters = op.Iterations
		}
		return h.entry(key(s, analysis), iters, err)
	}
	phasorEntry := func(s int, analysis string, hs []complex128, err error) engineGolden {
		h := newGoldenHash()
		h.phasors(hs)
		return h.entry(key(s, analysis), 0, err)
	}
	acEntry := func(s int, analysis string, ac *ACResult, err error) engineGolden {
		h := newGoldenHash()
		if ac != nil {
			for _, v := range ac.V {
				h.phasors(v)
			}
		}
		return h.entry(key(s, analysis), 0, err)
	}

	tranEntry := func(s int, name string, tr *TranResult, err error) engineGolden {
		h := newGoldenHash()
		rejected := 0
		if tr != nil {
			h.floats(tr.Times)
			for _, v := range tr.V {
				h.floats(v)
			}
			rejected = tr.Rejected
		}
		return h.entry(key(s, name), rejected, err)
	}
	names := make([]string, 0, len(b.tranOpts))
	for name := range b.tranOpts {
		names = append(names, name)
	}
	sort.Strings(names)

	ops := make([]*OPResult, b.samples)
	var prev *OPResult
	stop := Probe{Node: probeNode, StopAtUnity: true}
	full := Probe{Node: probeNode}
	if r.k == 1 {
		for s := 0; s < b.samples; s++ {
			b.set(s)
			op, err := eng.DCOperatingPoint()
			put(opEntry(s, "dc", op, err))
			ops[s] = op
			if s == 0 {
				prev = op
			}
			if prev == nil {
				t.Fatalf("%s: sample 0 must converge to seed the warm starts", r.prefix())
			}
			wop, werr := eng.DCOperatingPointFrom(prev)
			put(opEntry(s, "dc-warm", wop, werr))
			if op == nil {
				continue
			}
			ac, err := eng.AC(op, b.freqs)
			put(acEntry(s, "ac", ac, err))
			h, err := eng.ACProbe(op, b.freqs, stop)
			put(phasorEntry(s, "probe-stop", h, err))
			h, err = eng.ACProbe(op, b.freqs, full)
			put(phasorEntry(s, "probe-full", h, err))
		}
	} else {
		for g := 0; g < b.samples; g += r.k {
			active := make([]bool, r.k)
			for l := range active {
				active[l] = g+l < b.samples
			}
			set := func(l int) { b.set(g + l) }
			gops, errs := eng.DCOperatingPointBatchFrom(nil, active, set)
			for l := range active {
				if active[l] {
					put(opEntry(g+l, "dc", gops[l], errs[l]))
					ops[g+l] = gops[l]
				} else if gops[l] != nil || errs[l] != nil {
					t.Fatalf("%s: inactive lane %d produced output", r.prefix(), l)
				}
			}
			if g == 0 && gops[0] != nil {
				// A batch result lives until the next DC batch of the
				// width: the warm seed is a copy.
				prev = gops[0].clone()
			}
			if prev == nil {
				t.Fatalf("%s: sample 0 must converge to seed the warm starts", r.prefix())
			}
			acs, acErrs := eng.ACBatch(gops, b.freqs, set)
			for l := range active {
				if gops[l] == nil {
					if acs[l] != nil || acErrs[l] != nil {
						t.Fatalf("%s: nil lane %d produced AC output", r.prefix(), l)
					}
					continue
				}
				put(acEntry(g+l, "ac", acs[l], acErrs[l]))
			}
			// A probed record lives until the next probed sweep of the
			// width: each sweep's records are read before the next.
			for _, p := range []struct {
				name  string
				probe Probe
			}{{"probe-stop", stop}, {"probe-full", full}} {
				hs, hErrs := eng.ACBatchProbe(gops, b.freqs, p.probe, set)
				for l := range active {
					if gops[l] == nil {
						if hs[l] != nil || hErrs[l] != nil {
							t.Fatalf("%s: nil lane %d produced a probed record", r.prefix(), l)
						}
						continue
					}
					put(phasorEntry(g+l, p.name, hs[l], hErrs[l]))
				}
			}
			// The group's transients, every lane on its own step grid.
			for _, name := range names {
				trs, trErrs := eng.TransientBatch(gops, b.tranOpts[name], set)
				for l := range active {
					if gops[l] == nil {
						if trs[l] != nil || trErrs[l] != nil {
							t.Fatalf("%s: nil lane %d produced a transient", r.prefix(), l)
						}
						continue
					}
					put(tranEntry(g+l, name, trs[l], trErrs[l]))
				}
			}
			// The warm batch last: it reuses the cold batch's storage.
			wops, werrs := eng.DCOperatingPointBatchFrom(prev, active, set)
			for l := range active {
				if active[l] {
					put(opEntry(g+l, "dc-warm", wops[l], werrs[l]))
				}
			}
		}
	}

	// One-lane analyses on the same engine: on the MOS-free bench, AC with
	// no operating point, and at width 1 the point-wise transients.
	for s := 0; s < b.samples; s++ {
		b.set(s)
		if b.mosFree {
			ac, err := eng.AC(nil, b.freqs)
			if ac == nil && err == nil {
				t.Fatalf("%s: AC(nil) returned neither a sweep nor an error", r.prefix())
			}
			put(acEntry(s, "ac-nil", ac, err))
		}
		if r.k > 1 || ops[s] == nil {
			continue
		}
		for _, name := range names {
			tr, err := eng.TransientOpts(ops[s], b.tranOpts[name])
			put(tranEntry(s, name, tr, err))
		}
	}
	if out != nil {
		r.classify(eng, got, out)
	}
	return got
}

// classify tallies the cold-DC and warm outcomes from iteration counts. A
// cold solve that converges on the gmin ladder spends at most MaxIter per
// ladder level (plus one direct attempt with a nodeset); source stepping
// runs five more ladders of at least one iteration per level after a failed
// first one, so it always spends more. A warm solve that converges directly
// spends at most MaxIter; a fallback adds a whole cold solve to a failed
// attempt, at least one iteration per ladder level. The harness asserts the
// bounds do not overlap before it trusts them.
func (r engineRun) classify(eng *Engine, got map[string]engineGolden, out goldenOutcomes) {
	o := eng.opts
	levels := 1
	for g := gminStart; g > gminFinal; levels++ {
		g /= 100
	}
	direct := 0
	if r.nodeset {
		direct = 1
	}
	ladderMax := (levels + direct) * o.MaxIter
	steppingMin := direct + 1 + 5*levels
	if ladderMax >= steppingMin || o.MaxIter >= 1+levels {
		out["ambiguous bounds"]++
		return
	}
	for s := 0; s < r.bench.samples; s++ {
		dc := got[fmt.Sprintf("%s/s%d/dc", r.prefix(), s)]
		switch {
		case dc.Err != "":
			out["cold fails"]++
		case dc.Iters > ladderMax:
			out["cold source stepping"]++
		default:
			out["cold gmin ladder"]++
		}
		warm := got[fmt.Sprintf("%s/s%d/dc-warm", r.prefix(), s)]
		if warm.Err == "" && warm.Iters > o.MaxIter {
			out["warm falls back"]++
		}
	}
}

func engineRuns() []engineRun {
	var runs []engineRun
	for _, b := range []*goldenBench{steppingBench(), mosBench()} {
		for _, ns := range []bool{false, true} {
			for _, k := range goldenWidths {
				runs = append(runs, engineRun{bench: b, nodeset: ns, k: k})
			}
		}
	}
	return runs
}

// TestEngineGoldens pins the engine's output bits — operating points,
// iteration counts, AC phasors, probe prefixes, transient grids, waveforms
// and rejections, and error texts — against the committed goldens, at every
// lockstep width: a K-lane group, transients included, must reproduce the
// one-lane results of the same samples. Regenerate deliberately with
// `go test ./internal/spice -run EngineGoldens -update`.
func TestEngineGoldens(t *testing.T) {
	outcomes := goldenOutcomes{}
	var ref map[string]engineGolden
	byWidth := map[int][]map[string]engineGolden{}
	for _, r := range engineRuns() {
		var tally goldenOutcomes
		if r.k == 1 && r.bench.name == "stepping" && !r.nodeset {
			tally = outcomes
		}
		byWidth[r.k] = append(byWidth[r.k], r.run(t, tally))
	}
	merge := func(ms []map[string]engineGolden) map[string]engineGolden {
		all := map[string]engineGolden{}
		for _, m := range ms {
			for k, v := range m {
				all[k] = v
			}
		}
		return all
	}
	ref = merge(byWidth[1])

	if *updateEngineGoldens {
		for _, k := range goldenWidths[1:] {
			compareGoldens(t, fmt.Sprintf("K=%d vs K=1", k), ref, merge(byWidth[k]))
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		sb.WriteString("[\n")
		for i, k := range keys {
			line, err := json.Marshal(ref[k])
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(line)
			if i < len(keys)-1 {
				sb.WriteByte(',')
			}
			sb.WriteByte('\n')
		}
		sb.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(engineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d engine goldens to %s", len(keys), engineGoldenPath)
	} else {
		data, err := os.ReadFile(engineGoldenPath)
		if err != nil {
			t.Fatalf("read goldens (regenerate with -update): %v", err)
		}
		var want []engineGolden
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		golden := make(map[string]engineGolden, len(want))
		for _, g := range want {
			golden[g.Key] = g
		}
		for _, k := range goldenWidths {
			compareGoldens(t, fmt.Sprintf("K=%d", k), golden, merge(byWidth[k]))
		}
	}

	for _, outcome := range []string{"cold gmin ladder", "cold source stepping", "cold fails", "warm falls back"} {
		if outcomes[outcome] == 0 {
			t.Errorf("no sample ended %q: the harness misses a case (%v)", outcome, outcomes)
		}
	}
	if outcomes["ambiguous bounds"] > 0 {
		t.Errorf("iteration bounds overlap, outcomes cannot be classified (%v)", outcomes)
	}
}

// compareGoldens requires got to hold exactly want's keys with equal
// fingerprints.
func compareGoldens(t *testing.T, label string, want, got map[string]engineGolden) {
	t.Helper()
	bad := 0
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: missing %s", label, k)
			bad++
		case g != w:
			t.Errorf("%s: %s = %+v, want %+v", label, k, g, w)
			bad++
		}
		if bad > 20 {
			t.Fatalf("%s: too many mismatches", label)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: unexpected result %s", label, k)
		}
	}
}
