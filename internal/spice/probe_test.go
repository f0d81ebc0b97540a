package spice

import (
	"fmt"
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/measure"
	"github.com/eda-go/moheco/internal/netlist"
)

// probeBench is a transconductance stage driving RL ‖ CL at "out", so
// |H(f)| = gm·RL/√(1+(2πf·RL·CL)²) crosses unity near gm/(2π·CL); a tail
// of extra RC sections hanging off the ideal input source grows the node
// count without touching the probed response.
type probeBench struct {
	ckt  *netlist.Circuit
	gm   *netlist.VCCS
	rl   *netlist.Resistor
	out  int
	lane []struct{ gm, rl float64 }
}

func newProbeBench(tail int) *probeBench {
	c := netlist.New("probe bench")
	c.AddV("VIN", "in", "0", 0, 1)
	b := &probeBench{ckt: c}
	b.gm = c.AddG("G1", "out", "0", "in", "0", 1e-2)
	b.rl = c.AddR("RL", "out", "0", 1e4)
	c.AddC("CL", "out", "0", 1e-9)
	prev := "in"
	for i := 0; i < tail; i++ {
		n := fmt.Sprintf("t%d", i)
		c.AddR(fmt.Sprintf("RT%d", i), prev, n, 1e3)
		c.AddC(fmt.Sprintf("CT%d", i), n, "0", 1e-12)
		prev = n
	}
	b.out, _ = c.FindNode("out")
	return b
}

// setLanes installs per-lane (gm, RL) pairs and returns the LaneSetter.
func (b *probeBench) setLanes(lanes ...[2]float64) LaneSetter {
	b.lane = b.lane[:0]
	for _, l := range lanes {
		b.lane = append(b.lane, struct{ gm, rl float64 }{l[0], l[1]})
	}
	return func(l int) { b.gm.Gm, b.rl.R = b.lane[l].gm, b.lane[l].rl }
}

// The lanes every probe test sweeps: crossings at two different points, a
// lane that never reaches unity gain (full range), a lane whose DC solve
// failed (nil operating point), and a lane whose complex system is NaN from
// the first point.
var probeLanes = [][2]float64{
	{1e-2, 1e4},        // A0 = 100, crosses near 1.6 MHz
	{1e-1, 1e4},        // A0 = 1000, crosses near 16 MHz
	{5e-5, 1e4},        // A0 = 0.5: never crosses
	{1e-2, 1e4},        // nil operating point
	{1e-2, math.NaN()}, // AC fails at the first point
}

const probeNilLane, probeNaNLane = 3, 4

func probeOps(t *testing.T, eng *Engine, k int) []*OPResult {
	t.Helper()
	op, err := eng.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]*OPResult, k)
	for l := range ops {
		if l != probeNilLane {
			ops[l] = op
		}
	}
	return ops
}

func samePhasors(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// The probed scalar and lockstep sweeps return exactly the full all-node
// sweep's probe-node column, cut after the first unity crossing (or whole
// when there is none, or when the probe does not stop); failed lanes report
// the full sweep's error and nil lanes stay empty.
func TestProbedSweepsMatchFullPrefix(t *testing.T) {
	b := newProbeBench(3)
	k := len(probeLanes)
	set := b.setLanes(probeLanes...)
	eng, err := New(b.ckt, Options{Lanes: k})
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := New(b.ckt, Options{Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	freqs := LogSpace(1e3, 1e9, 8)
	ops := probeOps(t, eng, k)
	full, fullErrs := eng.ACBatch(ops, freqs, set)

	lengths := map[int]bool{}
	for _, stop := range []bool{true, false} {
		p := Probe{Node: b.out, StopAtUnity: stop}
		hs, errs := eng.ACBatchProbe(ops, freqs, p, set)
		for l := 0; l < k; l++ {
			if ops[l] == nil {
				if hs[l] != nil || errs[l] != nil {
					t.Fatalf("nil lane %d produced output: %v %v", l, hs[l], errs[l])
				}
				continue
			}
			set(l)
			sh, serr := scalar.ACProbe(ops[l], freqs, p)
			if fullErrs[l] != nil {
				if errs[l] == nil || serr == nil || errs[l].Error() != fullErrs[l].Error() || serr.Error() != fullErrs[l].Error() {
					t.Fatalf("lane %d: full sweep error %v, lockstep probe %v, scalar probe %v", l, fullErrs[l], errs[l], serr)
				}
				continue
			}
			if errs[l] != nil || serr != nil {
				t.Fatalf("lane %d: probe errors %v / %v on a clean sweep", l, errs[l], serr)
			}
			col, err := full[l].VNode(b.ckt, "out")
			if err != nil {
				t.Fatal(err)
			}
			m := len(col)
			prevAtLeast := false
			for i := 0; stop && i < len(col); i++ {
				falls, atLeast := measure.FallsThroughUnity(prevAtLeast, col[i])
				if falls {
					m = i + 1
					break
				}
				prevAtLeast = atLeast
			}
			if !samePhasors(hs[l], col[:m]) || !samePhasors(sh, col[:m]) {
				t.Fatalf("lane %d stop=%v: probe lengths %d (lockstep) / %d (scalar), want the %d-point prefix bit for bit",
					l, stop, len(hs[l]), len(sh), m)
			}
			if stop {
				lengths[m] = true
			}
		}
	}
	if fullErrs[probeNaNLane] == nil {
		t.Fatal("the NaN lane swept cleanly: the test misses the failing-lane case")
	}
	if len(lengths) != 3 || !lengths[len(freqs)] {
		t.Fatalf("probe prefix lengths %v: want two different crossings and one full-range lane", lengths)
	}
}

// The point-wise and lockstep sweeps move spice_factorizations_total by the
// same scalar-equivalent amount — one per attempted point per sweeping lane
// — on a group with early-stopping lanes, a never-crossing lane, a lane
// failing in AC and a nil lane, for the probed, bracketed and all-node
// sweeps; the bracketed sweep counts fewer than the dense prefix. The
// group-points counter moves by one per K-lane factorization: as much as
// the factorizations on one lane, less on the lockstep group.
func TestACFactorizationCountsMatch(t *testing.T) {
	b := newProbeBench(2)
	k := len(probeLanes)
	set := b.setLanes(probeLanes...)
	eng, err := New(b.ckt, Options{Lanes: k})
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := New(b.ckt, Options{Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	freqs := LogSpace(1e3, 1e9, 8)
	ops := probeOps(t, eng, k)
	p := Probe{Node: b.out, StopAtUnity: true}

	count := func(run func()) int64 {
		before := mFactorizations.Value()
		run()
		return mFactorizations.Value() - before
	}
	lockProbe := count(func() { eng.ACBatchProbe(ops, freqs, p, set) })
	lockFull := count(func() { eng.ACBatch(ops, freqs, set) })
	var want int64
	pointProbe := count(func() {
		for l, op := range ops {
			if op != nil {
				set(l)
				h, _ := scalar.ACProbe(op, freqs, p)
				want += int64(max(len(h), 1)) // a failed lane attempted one point
			}
		}
	})
	pointFull := count(func() {
		for l, op := range ops {
			if op != nil {
				set(l)
				scalar.AC(op, freqs)
			}
		}
	})
	if lockProbe != pointProbe || lockProbe != want {
		t.Errorf("probed sweep: lockstep counted %d factorizations, point-wise %d, want %d", lockProbe, pointProbe, want)
	}
	if lockFull != pointFull || lockFull != int64(3*len(freqs)+1) {
		t.Errorf("full sweep: lockstep counted %d factorizations, point-wise %d, want %d", lockFull, pointFull, 3*len(freqs)+1)
	}
	if lockProbe >= lockFull {
		t.Errorf("probed sweep counted %d factorizations, the full sweep %d: no lane stopped early", lockProbe, lockFull)
	}

	groups := func(run func()) int64 {
		before := mACGroupPoints.Value()
		run()
		return mACGroupPoints.Value() - before
	}
	var lockBracket, lockGroups int64
	lockGroups = groups(func() { lockBracket = count(func() { eng.ACBatchBracket(ops, freqs, b.out, set) }) })
	var pointBracket, pointGroups int64
	for l, op := range ops {
		if op != nil {
			set(l)
			pointGroups += groups(func() {
				pointBracket += count(func() { scalar.ACBatchBracket([]*OPResult{op}, freqs, b.out, noLane) })
			})
		}
	}
	if lockBracket != pointBracket || lockBracket >= lockProbe {
		t.Errorf("bracketed sweep: lockstep counted %d factorizations, point-wise %d, want equal and under the dense prefix's %d",
			lockBracket, pointBracket, lockProbe)
	}
	if pointGroups != pointBracket || lockGroups == 0 || lockGroups >= lockBracket {
		t.Errorf("bracketed sweep: %d group points point-wise (%d factorizations), %d lockstep (%d factorizations)",
			pointGroups, pointBracket, lockGroups, lockBracket)
	}
}

// A probed lockstep sweep allocates a fixed number of objects per group,
// independent of the circuit's node count and of the frequency count.
func TestACBatchProbeAllocsFixed(t *testing.T) {
	var counts []float64
	for _, tail := range []int{1, 30} {
		for _, ppd := range []int{2, 60} {
			b := newProbeBench(tail)
			lanes := probeLanes[:3] // clean lanes: error formatting allocates
			k := len(lanes)
			set := b.setLanes(lanes...)
			eng, err := New(b.ckt, Options{Lanes: k})
			if err != nil {
				t.Fatal(err)
			}
			op, err := eng.DCOperatingPoint()
			if err != nil {
				t.Fatal(err)
			}
			ops := []*OPResult{op, op, op}
			freqs := LogSpace(1e3, 1e9, ppd)
			p := Probe{Node: b.out, StopAtUnity: true}
			counts = append(counts, testing.AllocsPerRun(20, func() {
				if _, errs := eng.ACBatchProbe(ops, freqs, p, set); errs[0] != nil {
					t.Fatal(errs[0])
				}
			}))
		}
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("allocations per probed group vary with node and frequency count: %v", counts)
		}
	}
}

// A probe node outside the circuit is a bug in the caller: the sweep
// refuses it instead of recording a branch current or running off the
// solution vector.
func TestProbeOutsideCircuitPanics(t *testing.T) {
	b := newProbeBench(1)
	eng, err := New(b.ckt, Options{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	op, err := eng.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	set := b.setLanes(probeLanes[:2]...)
	freqs := LogSpace(1e3, 1e6, 2)
	for _, node := range []int{-1, b.ckt.NumNodes()} {
		for name, sweep := range map[string]func(){
			"ACProbe":      func() { eng.ACProbe(op, freqs, Probe{Node: node}) },
			"ACBatchProbe": func() { eng.ACBatchProbe([]*OPResult{op, op}, freqs, Probe{Node: node}, set) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted probe node %d of a %d-node circuit", name, node, b.ckt.NumNodes())
					}
				}()
				sweep()
			}()
		}
	}
}
