package spice

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/eda-go/moheco/internal/netlist"
)

// sameTran reports whether two transient results carry the same bits: the
// time grid, every waveform value and the rejection count.
func sameTran(a, b *TranResult) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Times) != len(b.Times) || a.Rejected != b.Rejected {
		return false
	}
	for i := range a.Times {
		if math.Float64bits(a.Times[i]) != math.Float64bits(b.Times[i]) {
			return false
		}
		for j := range a.V[i] {
			if math.Float64bits(a.V[i][j]) != math.Float64bits(b.V[i][j]) {
				return false
			}
		}
	}
	return true
}

// A transient lane that fails — by exceeding MaxSteps, or at a step that
// does not converge even at MinStep — reports its error alone, and every
// other lane of its group finishes with the bits of its one-lane run, at
// group widths 1, 3 and 8.
func TestTransientLaneFailsAlone(t *testing.T) {
	b := steppingBench()
	o := b.opts
	o.Solver = SolverSparse
	eng, err := New(b.ckt, o)
	if err != nil {
		t.Fatal(err)
	}
	var ix *netlist.ISource
	for _, d := range b.ckt.Devices {
		if s, ok := d.(*netlist.ISource); ok && s.Name == "IX" {
			ix = s
		}
	}
	ops := make([]*OPResult, b.samples)
	for s := range ops {
		b.set(s)
		ops[s], _ = eng.DCOperatingPoint()
	}

	// MaxSteps one below the most steps any lane attempts.
	adaptive := b.tranOpts["tran-adaptive"]
	most := 0
	for s, op := range ops {
		if op == nil {
			continue
		}
		b.set(s)
		tr, err := eng.TransientOpts(op, adaptive)
		if err != nil {
			t.Fatalf("sample %d: %v", s, err)
		}
		most = max(most, len(tr.Times)-1+tr.Rejected)
	}
	capped := adaptive
	capped.MaxSteps = most - 1

	// The poisoned lane's step drive turns NaN at the pulse edge: no step
	// size converges there.
	const poisoned = 1
	cases := []struct {
		name   string
		opts   TranOptions
		poison bool
		fails  string // in the error text of a failing lane
	}{
		{"max-steps", capped, false, "transient exceeded"},
		{"min-step", adaptive, true, "(h="},
	}
	for _, c := range cases {
		setSample := func(s int) {
			b.set(s)
			if c.poison && s == poisoned {
				ix.Pulse.V2 = math.NaN()
			}
		}
		want := make([]*TranResult, b.samples)
		wantErr := make([]error, b.samples)
		failed, finished := 0, 0
		for s, op := range ops {
			if op == nil {
				continue
			}
			setSample(s)
			want[s], wantErr[s] = eng.TransientOpts(op, c.opts)
			if wantErr[s] != nil {
				if !strings.Contains(wantErr[s].Error(), c.fails) {
					t.Fatalf("%s sample %d: one-lane error %v, want one containing %q", c.name, s, wantErr[s], c.fails)
				}
				failed++
			} else {
				finished++
			}
		}
		if failed == 0 || finished == 0 {
			t.Fatalf("%s: %d lanes fail and %d finish: the case tests nothing", c.name, failed, finished)
		}
		for _, k := range []int{1, 3, 8} {
			for g := 0; g < b.samples; g += k {
				group := make([]*OPResult, k)
				for l := range group {
					if g+l < b.samples {
						group[l] = ops[g+l]
					}
				}
				trs, errs := eng.TransientBatch(group, c.opts, func(l int) { setSample(g + l) })
				for l := range group {
					s := g + l
					if s >= b.samples {
						if trs[l] != nil || errs[l] != nil {
							t.Fatalf("%s K=%d: padding lane %d produced output", c.name, k, l)
						}
						continue
					}
					if fmt.Sprint(errs[l]) != fmt.Sprint(wantErr[s]) {
						t.Fatalf("%s K=%d sample %d: error %v, one-lane %v", c.name, k, s, errs[l], wantErr[s])
					}
					if !sameTran(trs[l], want[s]) {
						t.Fatalf("%s K=%d sample %d: transient differs from its one-lane run", c.name, k, s)
					}
				}
			}
		}
	}
}
