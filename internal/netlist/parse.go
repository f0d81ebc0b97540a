package netlist

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/eda-go/moheco/internal/mos"
)

// ParseValue parses a SPICE-style number with an optional engineering suffix
// (f p n u m k meg g t, case-insensitive). "10u" → 1e-5.
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, fmt.Errorf("netlist: empty value")
	}
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "meg"):
		mult, s = 1e6, s[:len(s)-3]
	case strings.HasSuffix(s, "f"):
		mult, s = 1e-15, s[:len(s)-1]
	case strings.HasSuffix(s, "p"):
		mult, s = 1e-12, s[:len(s)-1]
	case strings.HasSuffix(s, "n"):
		mult, s = 1e-9, s[:len(s)-1]
	case strings.HasSuffix(s, "u"):
		mult, s = 1e-6, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1e-3, s[:len(s)-1]
	case strings.HasSuffix(s, "k"):
		mult, s = 1e3, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1e9, s[:len(s)-1]
	case strings.HasSuffix(s, "t"):
		mult, s = 1e12, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("netlist: bad value %q", s)
	}
	return v * mult, nil
}

// FormatValue renders v with an engineering suffix, the inverse of ParseValue.
// The suffix is chosen from v rounded to the ten significant digits that
// are written, so a value just below a decade boundary (999.99999999999)
// renders as "1k", not "1000" — the same text its parsed value renders as.
func FormatValue(v float64) string {
	a, _ := strconv.ParseFloat(trim(math.Abs(v)), 64)
	switch {
	case v == 0:
		return "0"
	case a >= 1e12:
		return trim(v/1e12) + "t"
	case a >= 1e9:
		return trim(v/1e9) + "g"
	case a >= 1e6:
		return trim(v/1e6) + "meg"
	case a >= 1e3:
		return trim(v/1e3) + "k"
	case a >= 1:
		return trim(v)
	case a >= 1e-3:
		return trim(v*1e3) + "m"
	case a >= 1e-6:
		return trim(v*1e6) + "u"
	case a >= 1e-9:
		return trim(v*1e9) + "n"
	case a >= 1e-12:
		return trim(v*1e12) + "p"
	default:
		return trim(v*1e15) + "f"
	}
}

func trim(v float64) string {
	return strconv.FormatFloat(v, 'g', 10, 64)
}

// Parse reads a SPICE-like netlist. Supported cards:
//
//   - comment                        (also ; and lines starting with .title)
//     R<name> n1 n2 value
//     C<name> n1 n2 value
//     V<name> np nn dc [ac mag] [pulse v1 v2 td tr tf pw [per]]
//     I<name> np nn dc [ac mag] [pulse v1 v2 td tr tf pw [per]]
//     E<name> np nn ncp ncn gain
//     G<name> np nn ncp ncn gm
//     M<name> d g s b model W=.. L=.. [M=..]
//     .model name nmos|pmos [VTH0=..] [U0=..] [TOX=..] [LAMBDA0=..] [GAMMA=..]
//     [PHI=..] [LD=..] [WD=..] [CJ=..] [CJSW=..] [CGSO=..] [CGDO=..]
//     .end
//
// extraModels supplies pre-built model cards referenced by M lines (for
// technology decks defined in code); .model lines add to/override them.
func Parse(r io.Reader, extraModels map[string]*mos.Params) (*Circuit, error) {
	c := New("")
	for name, m := range extraModels {
		c.Models[name] = m
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	first := true
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "*") || strings.HasPrefix(line, ";") {
			if first && strings.HasPrefix(line, "*") {
				c.Title = strings.TrimSpace(strings.TrimPrefix(line, "*"))
			}
			first = false
			continue
		}
		first = false
		if err := c.parseLine(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Circuit) parseLine(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	head := fields[0]
	lower := strings.ToLower(head)
	switch {
	case lower == ".end":
		return nil
	case lower == ".title":
		c.Title = strings.Join(fields[1:], " ")
		return nil
	case lower == ".model":
		return c.parseModel(fields[1:])
	case strings.HasPrefix(lower, "r"):
		return c.parseTwoTerm(fields, func(n1, n2 int, v float64) {
			c.Add(&Resistor{Name: head, N1: n1, N2: n2, R: v})
		})
	case strings.HasPrefix(lower, "c"):
		return c.parseTwoTerm(fields, func(n1, n2 int, v float64) {
			c.Add(&Capacitor{Name: head, N1: n1, N2: n2, C: v})
		})
	case strings.HasPrefix(lower, "v"):
		dc, ac, pulse, n1, n2, err := c.parseSource(fields)
		if err != nil {
			return err
		}
		c.Add(&VSource{Name: head, NP: n1, NN: n2, DC: dc, ACMag: ac, Pulse: pulse})
		return nil
	case strings.HasPrefix(lower, "i"):
		dc, ac, pulse, n1, n2, err := c.parseSource(fields)
		if err != nil {
			return err
		}
		c.Add(&ISource{Name: head, NP: n1, NN: n2, DC: dc, ACMag: ac, Pulse: pulse})
		return nil
	case strings.HasPrefix(lower, "e"), strings.HasPrefix(lower, "g"):
		if len(fields) != 6 {
			return fmt.Errorf("%s: want 6 fields, got %d", head, len(fields))
		}
		v, err := ParseValue(fields[5])
		if err != nil {
			return err
		}
		np, nn := c.Node(fields[1]), c.Node(fields[2])
		ncp, ncn := c.Node(fields[3]), c.Node(fields[4])
		if strings.HasPrefix(lower, "e") {
			c.Add(&VCVS{Name: head, NP: np, NN: nn, NCP: ncp, NCN: ncn, Gain: v})
		} else {
			c.Add(&VCCS{Name: head, NP: np, NN: nn, NCP: ncp, NCN: ncn, Gm: v})
		}
		return nil
	case strings.HasPrefix(lower, "m"):
		return c.parseMosfet(fields)
	default:
		return fmt.Errorf("unsupported card %q", head)
	}
}

func (c *Circuit) parseTwoTerm(fields []string, add func(n1, n2 int, v float64)) error {
	if len(fields) != 4 {
		return fmt.Errorf("%s: want 4 fields, got %d", fields[0], len(fields))
	}
	v, err := ParseValue(fields[3])
	if err != nil {
		return err
	}
	add(c.Node(fields[1]), c.Node(fields[2]), v)
	return nil
}

func (c *Circuit) parseSource(fields []string) (dc, ac float64, pulse *Pulse, n1, n2 int, err error) {
	if len(fields) < 4 {
		return 0, 0, nil, 0, 0, fmt.Errorf("%s: want at least 4 fields", fields[0])
	}
	n1, n2 = c.Node(fields[1]), c.Node(fields[2])
	dc, err = ParseValue(fields[3])
	if err != nil {
		return
	}
	rest := fields[4:]
	for len(rest) > 0 {
		switch {
		case strings.EqualFold(rest[0], "ac") && len(rest) >= 2:
			ac, err = ParseValue(rest[1])
			if err != nil {
				return
			}
			rest = rest[2:]
		case strings.EqualFold(rest[0], "pulse") && len(rest) >= 7:
			vals := make([]float64, 0, 7)
			n := 7
			if len(rest) >= 8 {
				n = 8
			}
			for _, f := range rest[1:n] {
				v, perr := ParseValue(f)
				if perr != nil {
					err = perr
					return
				}
				vals = append(vals, v)
			}
			pulse = &Pulse{V1: vals[0], V2: vals[1], Delay: vals[2], Rise: vals[3], Fall: vals[4], Width: vals[5]}
			if len(vals) == 7 {
				pulse.Period = vals[6]
			}
			rest = rest[n:]
		default:
			err = fmt.Errorf("%s: unexpected token %q", fields[0], rest[0])
			return
		}
	}
	return
}

func (c *Circuit) parseMosfet(fields []string) error {
	if len(fields) < 7 {
		return fmt.Errorf("%s: want M d g s b model W=.. L=..", fields[0])
	}
	model, ok := c.Models[fields[5]]
	if !ok {
		return fmt.Errorf("%s: unknown model %q", fields[0], fields[5])
	}
	w, l, m := 0.0, 0.0, 1.0
	for _, kv := range fields[6:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("%s: bad parameter %q", fields[0], kv)
		}
		v, err := ParseValue(parts[1])
		if err != nil {
			return err
		}
		switch strings.ToUpper(parts[0]) {
		case "W":
			w = v
		case "L":
			l = v
		case "M":
			m = v
		default:
			return fmt.Errorf("%s: unknown parameter %q", fields[0], parts[0])
		}
	}
	if w <= 0 || l <= 0 {
		return fmt.Errorf("%s: W and L are required and positive", fields[0])
	}
	c.Add(&Mosfet{
		Name: fields[0],
		D:    c.Node(fields[1]), G: c.Node(fields[2]),
		S: c.Node(fields[3]), B: c.Node(fields[4]),
		Dev: mos.Device{Params: model, W: w, L: l, M: m},
	})
	return nil
}

func (c *Circuit) parseModel(fields []string) error {
	if len(fields) < 2 {
		return fmt.Errorf(".model: want name and type")
	}
	p := &mos.Params{Name: fields[0]}
	switch strings.ToLower(fields[1]) {
	case "nmos":
		p.PMOS = false
	case "pmos":
		p.PMOS = true
	default:
		return fmt.Errorf(".model: unknown type %q", fields[1])
	}
	// Reasonable defaults so partial cards are usable.
	p.VTH0, p.U0, p.TOX = 0.5, 0.03, 5e-9
	p.Lambda0, p.Gamma, p.Phi = 0.1, 0.4, 0.8
	for _, kv := range fields[2:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf(".model: bad parameter %q", kv)
		}
		v, err := ParseValue(parts[1])
		if err != nil {
			return err
		}
		switch strings.ToUpper(parts[0]) {
		case "VTH0":
			p.VTH0 = v
		case "U0":
			p.U0 = v
		case "TOX":
			p.TOX = v
		case "LAMBDA0":
			p.Lambda0 = v
		case "GAMMA":
			p.Gamma = v
		case "PHI":
			p.Phi = v
		case "LD":
			p.LD = v
		case "WD":
			p.WD = v
		case "CJ":
			p.CJ = v
		case "CJSW":
			p.CJSW = v
		case "CGSO":
			p.CGSO = v
		case "CGDO":
			p.CGDO = v
		case "RDIFF":
			p.RDiff = v
		case "LDIFF":
			p.LDiff = v
		default:
			return fmt.Errorf(".model: unknown parameter %q", parts[0])
		}
	}
	c.Models[p.Name] = p
	return nil
}

// Write renders the circuit back to the text format accepted by Parse.
func Write(w io.Writer, c *Circuit) error {
	if _, err := fmt.Fprintf(w, "* %s\n", c.Title); err != nil {
		return err
	}
	for _, d := range c.Devices {
		var line string
		switch t := d.(type) {
		case *Resistor:
			line = fmt.Sprintf("%s %s %s %s", t.Name, c.NodeName(t.N1), c.NodeName(t.N2), FormatValue(t.R))
		case *Capacitor:
			line = fmt.Sprintf("%s %s %s %s", t.Name, c.NodeName(t.N1), c.NodeName(t.N2), FormatValue(t.C))
		case *VSource:
			line = fmt.Sprintf("%s %s %s %s", t.Name, c.NodeName(t.NP), c.NodeName(t.NN), FormatValue(t.DC))
			if t.ACMag != 0 {
				line += " ac " + FormatValue(t.ACMag)
			}
		case *ISource:
			line = fmt.Sprintf("%s %s %s %s", t.Name, c.NodeName(t.NP), c.NodeName(t.NN), FormatValue(t.DC))
			if t.ACMag != 0 {
				line += " ac " + FormatValue(t.ACMag)
			}
		case *VCVS:
			line = fmt.Sprintf("%s %s %s %s %s %s", t.Name, c.NodeName(t.NP), c.NodeName(t.NN),
				c.NodeName(t.NCP), c.NodeName(t.NCN), FormatValue(t.Gain))
		case *VCCS:
			line = fmt.Sprintf("%s %s %s %s %s %s", t.Name, c.NodeName(t.NP), c.NodeName(t.NN),
				c.NodeName(t.NCP), c.NodeName(t.NCN), FormatValue(t.Gm))
		case *Mosfet:
			line = fmt.Sprintf("%s %s %s %s %s %s W=%s L=%s M=%s", t.Name,
				c.NodeName(t.D), c.NodeName(t.G), c.NodeName(t.S), c.NodeName(t.B),
				t.Dev.Params.Name, FormatValue(t.Dev.W), FormatValue(t.Dev.L), FormatValue(t.Dev.M))
		default:
			return fmt.Errorf("netlist: cannot write device %T", d)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, ".end")
	return err
}
