package exp

import (
	"bytes"
	"strings"
	"testing"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/core"
)

func tinyConfig() Config {
	return Config{Runs: 1, RefSamples: 5000, MaxGens: 60, Seed: 42}
}

func TestMethodSpecs(t *testing.T) {
	m1 := Example1Methods()
	if len(m1) != 5 {
		t.Fatalf("example 1 has %d methods, want 5 (paper Tables 1-2)", len(m1))
	}
	m2 := Example2Methods()
	if len(m2) != 3 {
		t.Fatalf("example 2 has %d methods, want 3 (paper Tables 3-4)", len(m2))
	}
	if m1[4].Label != "MOHECO" || m1[4].Method != core.MethodMOHECO {
		t.Errorf("last example-1 row should be MOHECO: %+v", m1[4])
	}
}

func TestConfigs(t *testing.T) {
	f, q := Full(), Quick()
	if f.Runs != 10 || f.RefSamples != 50000 {
		t.Errorf("Full config differs from the paper: %+v", f)
	}
	if q.Runs >= f.Runs || q.RefSamples > f.RefSamples {
		t.Errorf("Quick should be smaller than Full")
	}
}

func TestRunTableOnQuickstart(t *testing.T) {
	// Use the cheap quickstart problem so this test stays fast while
	// exercising the full table pipeline.
	methods := []MethodSpec{
		{Label: "150 simulations (AS+LHS)", Method: core.MethodFixedBudget, FixedSims: 150, MaxSims: 150},
		{Label: "MOHECO", Method: core.MethodMOHECO, MaxSims: 150},
	}
	res, err := RunTable("test-table", circuits.NewCommonSource(), methods, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Methods) != 2 {
		t.Fatalf("methods = %d", len(res.Methods))
	}
	for _, m := range res.Methods {
		if len(m.Runs) != 1 {
			t.Fatalf("%s: runs = %d", m.Label, len(m.Runs))
		}
		if !m.Runs[0].Feasible {
			t.Errorf("%s: run infeasible", m.Label)
		}
		if m.Runs[0].Sims <= 0 {
			t.Errorf("%s: no sims", m.Label)
		}
		if m.Runs[0].Deviation < 0 || m.Runs[0].Deviation > 0.2 {
			t.Errorf("%s: deviation %v implausible", m.Label, m.Runs[0].Deviation)
		}
	}

	var dev, sims bytes.Buffer
	res.RenderDeviation(&dev)
	res.RenderSims(&sims)
	if !strings.Contains(dev.String(), "MOHECO") || !strings.Contains(dev.String(), "average") {
		t.Errorf("deviation table malformed:\n%s", dev.String())
	}
	if !strings.Contains(sims.String(), "MOHECO") {
		t.Errorf("sims table malformed:\n%s", sims.String())
	}

	var f6 bytes.Buffer
	RenderFig6(res, &f6)
	if !strings.Contains(f6.String(), "avg deviation") {
		t.Errorf("fig6 malformed:\n%s", f6.String())
	}
}

func TestRunTableDeterministic(t *testing.T) {
	methods := []MethodSpec{{Label: "MOHECO", Method: core.MethodMOHECO, MaxSims: 100}}
	cfg := tinyConfig()
	a, err := RunTable("t", circuits.NewCommonSource(), methods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTable("t", circuits.NewCommonSource(), methods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Methods[0].Sims.Average != b.Methods[0].Sims.Average ||
		a.Methods[0].Deviation.Average != b.Methods[0].Deviation.Average {
		t.Error("table runs are not deterministic")
	}
}

func TestFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("full MOHECO run in -short mode")
	}
	cfg := tinyConfig()
	cfg.MaxGens = 120
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Yields) < 5 {
		t.Fatalf("population too small: %d", len(res.Yields))
	}
	if res.TotalSims <= 0 || res.Ratio <= 0 || res.Ratio >= 1 {
		t.Errorf("totals implausible: sims=%d ratio=%v", res.TotalSims, res.Ratio)
	}
	// The defining OCBA property: the high-yield group's simulation share
	// exceeds its population share; the low-yield group's is below.
	if res.HighFrac > 0 && res.HighSimShare < res.HighFrac*0.8 {
		t.Errorf("high-yield group underfunded: %.2f of pop but %.2f of sims",
			res.HighFrac, res.HighSimShare)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "yield > 70%") {
		t.Errorf("render malformed:\n%s", buf.String())
	}
}

func TestRSBExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("NN training in -short mode")
	}
	cfg := tinyConfig()
	cfg.MaxGens = 120
	res, err := RunRSB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	// The paper's point: the response surface stays too inaccurate to
	// replace MC — several percent RMS.
	if res.FinalRMS < 0.005 {
		t.Errorf("NN final RMS %.4f suspiciously good", res.FinalRMS)
	}
	if res.FinalRMS > 0.6 {
		t.Errorf("NN final RMS %.4f suspiciously bad", res.FinalRMS)
	}
	var buf bytes.Buffer
	RenderRSB(res, &buf)
	if !strings.Contains(buf.String(), "final prediction RMS") {
		t.Errorf("render malformed:\n%s", buf.String())
	}
}

func TestTableCSVExport(t *testing.T) {
	methods := []MethodSpec{{Label: "MOHECO", Method: core.MethodMOHECO, MaxSims: 100}}
	res, err := RunTable("csv-table", circuits.NewCommonSource(), methods, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 { // header + 1 run
		t.Fatalf("csv lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "table,problem,method,run") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "MOHECO") {
		t.Errorf("row = %q", lines[1])
	}
}

// TestRunGridProgress checks the run grid's progress feed: one line per
// (row, run) cell, written safely from concurrent runs into a plain
// buffer, with a reference only on rows that score one.
func TestRunGridProgress(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig()
	cfg.Runs, cfg.Workers, cfg.Progress = 2, 2, &buf
	methods := []MethodSpec{
		{Label: "150 simulations (AS+LHS)", Method: core.MethodFixedBudget, FixedSims: 150, MaxSims: 150},
		{Label: "MOHECO", Method: core.MethodMOHECO, MaxSims: 150},
	}
	if _, err := RunTable("progress", circuits.NewCommonSource(), methods, cfg); err != nil {
		t.Fatal(err)
	}
	race := quickRace()
	race.Progress = &buf
	if _, err := RunRace(race); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var table, races int
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "progress: ") && strings.Contains(l, " ref="):
			table++
		case strings.HasPrefix(l, "race: ") && !strings.Contains(l, " ref="):
			races++
		default:
			t.Errorf("unexpected progress line %q", l)
		}
	}
	if table != 4 || races != 4 {
		t.Errorf("got %d table and %d race progress lines, want 4 and 4:\n%s", table, races, buf.String())
	}
}
