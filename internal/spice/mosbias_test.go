package spice

import (
	"math"
	"math/rand"
	"testing"

	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
)

// evalMosfetOracle is the device evaluation the stamps ran before the
// in-place forms: polarity fold and source/drain swap, then Evaluate.
func evalMosfetOracle(m *netlist.Mosfet, V []float64) (op mos.OP, swapped bool) {
	vd, vg, vs, vb := V[m.D], V[m.G], V[m.S], V[m.B]
	if m.Dev.Params.PMOS {
		if vs-vd < 0 {
			vd, vs = vs, vd
			swapped = true
		}
		return m.Dev.Evaluate(vs-vg, vs-vd, vs-vb), swapped
	}
	if vd-vs < 0 {
		vd, vs = vs, vd
		swapped = true
	}
	return m.Dev.Evaluate(vg-vs, vd-vs, vb-vs), swapped
}

// The DC stamp's evaluation (mosBias, then EvaluateDC into reused storage)
// and the operating-point/AC one (mosBias, then EvaluateTo) reproduce the
// oracle's frame, swap flag and operating point bit for bit on random node
// voltages: NMOS and PMOS, drain above and below source, every region, and
// terminals shared with ground.
func TestMosBiasMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seen := map[[3]int]int{} // (PMOS, swapped, region)
	var dc mos.OP            // reused across devices, as stampDC does
	for _, card := range []*mos.Params{nmosCard(), pmosCard()} {
		for i := 0; i < 20000; i++ {
			m := &netlist.Mosfet{Name: "M", D: rng.Intn(4), G: rng.Intn(4), S: rng.Intn(4), B: rng.Intn(4),
				Dev: mos.Device{Params: card, W: 1e-6 + rng.Float64()*40e-6, L: 0.35e-6 + rng.Float64()*2e-6, M: 1}}
			V := []float64{0, 3.3 * rng.Float64(), 3.3 * rng.Float64(), 3.3 * rng.Float64()}
			want, wantSwap := evalMosfetOracle(m, V)
			vgs, vds, vbs, swapped := mosBias(m, V)
			if swapped != wantSwap {
				t.Fatalf("%s V=%v: swapped %v, oracle %v", card.Name, V, swapped, wantSwap)
			}
			m.Dev.EvaluateDC(&dc, vgs, vds, vbs)
			if dc.Region != want.Region || !sameBits(dc.ID, want.ID) || !sameBits(dc.VTH, want.VTH) ||
				!sameBits(dc.Vov, want.Vov) || !sameBits(dc.VDsat, want.VDsat) || !sameBits(dc.Gm, want.Gm) ||
				!sameBits(dc.Gds, want.Gds) || !sameBits(dc.Gmb, want.Gmb) {
				t.Fatalf("%s V=%v: DC %+v, oracle %+v", card.Name, V, dc, want)
			}
			var full mos.OP
			m.Dev.EvaluateTo(&full, vgs, vds, vbs)
			if full != want {
				t.Fatalf("%s V=%v: EvaluateTo %+v, oracle %+v", card.Name, V, full, want)
			}
			p, s := 0, 0
			if card.PMOS {
				p = 1
			}
			if swapped {
				s = 1
			}
			seen[[3]int{p, s, int(want.Region)}]++
		}
	}
	for p := 0; p < 2; p++ {
		for s := 0; s < 2; s++ {
			for _, r := range []mos.Region{mos.Cutoff, mos.Triode, mos.Saturation} {
				if seen[[3]int{p, s, int(r)}] == 0 {
					t.Errorf("PMOS=%d swapped=%d %v never drawn", p, s, r)
				}
			}
		}
	}
}

// sameBits reports bit identity of two floats.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
