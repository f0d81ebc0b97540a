package exp

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/core"
)

// -update regenerates testdata/exp_goldens.txt from the current code.
// Regenerate only when a change is meant to alter an experiment's output; a
// refactor of the harness must leave the file untouched.
var updateGoldens = flag.Bool("update", false, "rewrite testdata/exp_goldens.txt")

const goldenPath = "testdata/exp_goldens.txt"

// goldenConfig is the tiny scale every pinned experiment runs at.
func goldenConfig() Config {
	return Config{Runs: 2, RefSamples: 2000, MaxGens: 12, Seed: 42, Workers: 2}
}

// renderGoldens runs every experiment at its tiny configuration and returns
// the concatenated renders and exports, one titled section each.
func renderGoldens(t *testing.T) string {
	t.Helper()
	var out bytes.Buffer
	section := func(title string, write func(io.Writer) error) {
		fmt.Fprintf(&out, "==== %s\n", title)
		if err := write(&out); err != nil {
			t.Fatalf("%s: %v", title, err)
		}
	}

	tcfg := goldenConfig()
	tcfg.MaxGens = 40
	table, err := RunTable("golden-table", circuits.NewCommonSource(), []MethodSpec{
		{Label: "150 simulations (AS+LHS)", Method: core.MethodFixedBudget, FixedSims: 150, MaxSims: 150},
		{Label: "OO+AS+LHS", Method: core.MethodOOOnly, MaxSims: 150},
		{Label: "MOHECO", Method: core.MethodMOHECO, MaxSims: 150},
	}, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	section("RunTable quickstart: deviation", func(b io.Writer) error { table.RenderDeviation(b); return nil })
	section("RunTable quickstart: sims", func(b io.Writer) error { table.RenderSims(b); return nil })
	section("RunTable quickstart: Fig. 6", func(b io.Writer) error { RenderFig6(table, b); return nil })
	section("RunTable quickstart: CSV", func(b io.Writer) error { return table.WriteCSV(b) })

	t12cfg := goldenConfig()
	t12cfg.MaxGens = 20
	t12, err := Table1and2(t12cfg)
	if err != nil {
		t.Fatal(err)
	}
	section("Table1and2: deviation", func(b io.Writer) error { t12.RenderDeviation(b); return nil })
	section("Table1and2: sims", func(b io.Writer) error { t12.RenderSims(b); return nil })
	section("Table1and2: CSV", t12.WriteCSV)

	acfg := goldenConfig()
	acfg.MaxGens = 30
	abl, err := RunAblation(acfg)
	if err != nil {
		t.Fatal(err)
	}
	section("RunAblation", func(b io.Writer) error { abl.Render(b); return nil })
	section("RunAblation: CSV", abl.WriteCSV)

	ps, err := RunPSWCD(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	section("RunPSWCD", func(b io.Writer) error { ps.Render(b); return nil })

	fcfg := goldenConfig()
	fcfg.MaxGens = 30
	f3, err := RunFig3(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	section("RunFig3", func(b io.Writer) error { f3.Render(b); return nil })
	section("RunFig3: CSV", f3.WriteCSV)

	rcfg := goldenConfig()
	rcfg.MaxGens = 19
	rs, err := RunRSB(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	section("RunRSB", func(b io.Writer) error { RenderRSB(rs, b); return nil })

	race, err := RunRace(quickRace())
	if err != nil {
		t.Fatal(err)
	}
	section("RunRace", func(b io.Writer) error { race.Render(b); return nil })
	section("RunRace: CSV", race.WriteCSV)
	section("RunRace: JSON", race.WriteJSON)
	return out.String()
}

// TestExperimentGoldens pins the rendered output of the experiment harness
// byte for byte: the table, ablation, worst-case, Fig. 3 and race renders
// and their CSV/JSON exports at tiny fixed configurations. Regenerate
// deliberately with `go test ./internal/exp -run ExperimentGoldens -update`.
func TestExperimentGoldens(t *testing.T) {
	got := renderGoldens(t)
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update): %v", err)
	}
	if want := string(data); got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(g) || i < len(w); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Fatalf("output diverged from %s at line %d:\n got %q\nwant %q", goldenPath, i+1, gl, wl)
			}
		}
	}
}
