package pdk

import "testing"

func TestDeckVariableCounts(t *testing.T) {
	// The paper's variable accounting: ex.1 uses 20 inter-die variables,
	// ex.2 uses 47.
	if n := len(C035().Inter); n != 20 {
		t.Errorf("c035 inter-die count = %d, want 20", n)
	}
	if n := len(N90().Inter); n != 47 {
		t.Errorf("n90 inter-die count = %d, want 47", n)
	}
}

func TestC035PaperNames(t *testing.T) {
	want := map[string]bool{
		"TOXRn": true, "VTH0Rn": true, "DELUON": true, "DELL": true,
		"DELW": true, "DELRDIFFN": true, "VTH0Rp": true, "DELUOP": true,
		"DELRDIFFP": true, "CJSWRn": true, "CJSWRp": true, "CJRn": true,
		"CJRp": true, "NPEAKn": true, "NPEAKp": true, "TOXRp": true,
		"LDn": true, "WDn": true, "LDp": true, "WDp": true,
	}
	for _, v := range C035().Inter {
		if !want[v.Name] {
			t.Errorf("unexpected variable %q in c035", v.Name)
		}
		delete(want, v.Name)
	}
	for name := range want {
		t.Errorf("missing paper variable %q in c035", name)
	}
}

func TestUniqueNames(t *testing.T) {
	for _, tech := range []*Tech{C035(), N90()} {
		seen := map[string]bool{}
		for _, v := range tech.Inter {
			if seen[v.Name] {
				t.Errorf("%s: duplicate inter-die variable %q", tech.Name, v.Name)
			}
			seen[v.Name] = true
		}
	}
}

func TestSigmasPositive(t *testing.T) {
	for _, tech := range []*Tech{C035(), N90()} {
		for _, v := range tech.Inter {
			if v.Sigma <= 0 {
				t.Errorf("%s/%s sigma = %v", tech.Name, v.Name, v.Sigma)
			}
		}
		mm := tech.Mismatch
		if mm.AVT <= 0 || mm.ATOX <= 0 || mm.ALD <= 0 || mm.AWD <= 0 {
			t.Errorf("%s mismatch coefficients must be positive: %+v", tech.Name, mm)
		}
	}
}

func TestModelCardsPlausible(t *testing.T) {
	for _, tech := range []*Tech{C035(), N90()} {
		for _, pmos := range []bool{false, true} {
			m := tech.Model(pmos)
			if m.PMOS != pmos {
				t.Errorf("%s polarity flag mismatch", m.Name)
			}
			if m.VTH0 <= 0 || m.VTH0 >= tech.VDD {
				t.Errorf("%s VTH0 = %v implausible for VDD %v", m.Name, m.VTH0, tech.VDD)
			}
			if m.KP() <= 0 {
				t.Errorf("%s KP = %v", m.Name, m.KP())
			}
			if m.TOX <= 0 || m.TOX > 20e-9 {
				t.Errorf("%s TOX = %v", m.Name, m.TOX)
			}
		}
		// NMOS mobility should exceed PMOS mobility.
		if tech.NMOS.U0 <= tech.PMOS.U0 {
			t.Errorf("%s: U0n %v should exceed U0p %v", tech.Name, tech.NMOS.U0, tech.PMOS.U0)
		}
	}
}

func TestScalingBetweenNodes(t *testing.T) {
	c, n := C035(), N90()
	if n.VDD >= c.VDD {
		t.Error("90nm VDD should be lower")
	}
	if n.LMin >= c.LMin {
		t.Error("90nm LMin should be smaller")
	}
	if n.NMOS.TOX >= c.NMOS.TOX {
		t.Error("90nm oxide should be thinner")
	}
	// Thinner oxide means larger KP even with lower mobility.
	if n.NMOS.KP() <= c.NMOS.KP() {
		t.Error("90nm KP should exceed 0.35µm KP")
	}
	// Mismatch improves (smaller AVT) with scaling.
	if n.Mismatch.AVT >= c.Mismatch.AVT {
		t.Error("90nm AVT should be smaller")
	}
}
