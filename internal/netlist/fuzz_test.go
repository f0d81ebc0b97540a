package netlist

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the netlist parser, which reads user
// files (cmd/netlistsim). It must never panic, and a netlist it accepts
// must reach a fixed point after one write: writing it, parsing that text
// back (with the same model cards) and writing again gives the same text.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		demoNetlist,
		`* mos test
.model nch nmos VTH0=0.55 U0=0.04 TOX=7.6n LAMBDA0=0.06 GAMMA=0.58 PHI=0.85
V1 vdd 0 3.3
M1 out in 0 0 nch W=10u L=1u M=2
R1 vdd out 10k
V2 in 0 1.0
.end
`,
		"M1 d g 0 0 nch W=5u L=0.5u\nV1 d 0 1\nV2 g 0 1\n.end\n",
		"Q1 a b c 5\n",
		"R1 a b\n",
		"R1 a b xx\n",
		"M1 d g s b nope W=1u L=1u\n",
		"E1 a b c 5\n",
		".model foo bar\n",
		"M1 d g s b nch L=1u\nV1 d 0 1",
		`* pulses
V1 in 0 0 pulse 0 3.3 1n 0.5n 0.5n 10n 20n
I1 in 0 1u ac 2 pulse 0 1m 0 1n 1n 5n
R1 in 0 1k
.end
`,
		"V1 a 0 1 pulse 0 1 2\n",
		"V1 a 0 1 bogus\n",
		"* round trip\nV1 vdd 0 3.3\nVin in 0 1.65 ac 1\nR1 vdd out 10k\nC1 out 0 2p\nI1 vdd out 10u\n" +
			"E1 x 0 out 0 10\nG1 out 0 in 0 1m\n.end\n",
		// Values just below a decade boundary round up into the next
		// engineering suffix when written.
		"R1 a 0 999.99999999999\nC1 a 0 0.99999999999p\nV1 a 0 -999999.9999999999\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(strings.NewReader(src), nil)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Write(&first, c); err != nil {
			return // a device the writer does not support
		}
		c2, err := Parse(strings.NewReader(first.String()), c.Models)
		if err != nil {
			t.Fatalf("written netlist does not parse: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := Write(&second, c2); err != nil {
			t.Fatalf("reparsed netlist does not write: %v", err)
		}
		if first.String() != second.String() {
			t.Fatalf("write → parse → write is not a fixed point:\n%s\n--- vs ---\n%s", first.String(), second.String())
		}
	})
}
