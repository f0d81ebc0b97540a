// Command paperbench regenerates the paper's experimental results: Tables
// 1–4, Fig. 3, Fig. 6, the §3.4 response-surface and worst-case
// comparisons, and the design-choice ablation study.
//
// Usage:
//
//	paperbench [-quick] [-runs N] [-ref N] [-seed S] [-workers N]
//	           [-only LIST] [-csv DIR] [-v]
//	           [-cpuprofile FILE] [-memprofile FILE]
//	paperbench -racejson FILE [-racebudget N] [-racebackends LIST]
//	           [-racescenarios LIST] [-racegens N] [-racemaxsims N]
//	           [-runs N] [-seed S] [-workers N] [-csv DIR] [-v]
//
// By default it runs the full paper-scale configuration (10 runs per
// method, 50,000-sample references). -quick switches to the reduced
// configuration used by the benchmarks. -only selects a comma-separated
// subset of {table12, table34, fig3, fig6, rsb, pswcd, ablation}; an
// unknown name selects nothing. -csv also writes per-run CSV files
// (table12.csv, table34.csv, fig3.csv) into DIR. -v prints one progress
// line per run on stderr.
//
// -racejson runs the equal-budget optimizer race instead (backends ×
// scenarios × repeat seeds under one simulation cap) and writes the
// BENCH_optimizers.json artifact, plus race.csv under -csv. -racebudget
// is the per-run simulation cap, -racebackends and -racescenarios pick
// the grid (empty = every registered name), -racegens caps generations
// per run and -racemaxsims sets the stage-2 per-candidate budget; -runs
// is the repeat count (default 3) and -seed defaults to 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/eda-go/moheco/internal/exp"
	"github.com/eda-go/moheco/internal/profiling"
	"github.com/eda-go/moheco/internal/scenario"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "reduced configuration (3 runs, 20k references)")
		runs    = flag.Int("runs", 0, "override the number of runs per method")
		refN    = flag.Int("ref", 0, "override the reference sample count")
		seed    = flag.Uint64("seed", 0, "override the experiment seed")
		work    = flag.Int("workers", 0, "evaluation worker goroutines (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		only    = flag.String("only", "", "comma-separated subset: table12,table34,fig3,fig6,rsb,pswcd,ablation")
		verb    = flag.Bool("v", false, "print per-run progress")
		csvDir  = flag.String("csv", "", "also write per-run CSV files into this directory")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		raceJS  = flag.String("racejson", "", "run the equal-budget optimizer race and write BENCH_optimizers.json to this file, then exit")
		raceBgt = flag.Int64("racebudget", 2000, "per-run simulation cap for the optimizer race")
		raceBk  = flag.String("racebackends", "", "comma-separated backends to race (empty = all registered)")
		raceSc  = flag.String("racescenarios", "", "comma-separated scenarios to race (empty = all registered)")
		raceGen = flag.Int("racegens", 0, "generation/round cap per race run (0 = optimizer default)")
		raceMS  = flag.Int("racemaxsims", 0, "stage-2 per-candidate budget in the race (0 = scenario default); smaller values tighten budget adherence")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: paperbench [flags]\n\n")
		flag.PrintDefaults()
		// The experiments resolve their circuits through the scenario
		// registry; list it so the mapping from tables to problems is
		// discoverable.
		fmt.Fprintf(flag.CommandLine.Output(), "\n%s", scenario.Usage())
	}
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	if *raceJS != "" {
		// Equal-budget optimizer race: every backend runs the same scenarios
		// from the same repeat seeds under the same simulation cap, and the
		// comparison is yield at budget (exp.RunRace). The JSON artifact is
		// the BENCH_optimizers.json snapshot CI uploads next to the others.
		rcfg := exp.RaceConfig{
			Config:    exp.Config{Runs: *runs, MaxGens: *raceGen, Seed: *seed, Workers: *work},
			SimBudget: *raceBgt,
			MaxSims:   *raceMS,
		}
		if rcfg.Runs <= 0 {
			rcfg.Runs = 3
		}
		if rcfg.Seed == 0 {
			rcfg.Seed = 1
		}
		if *raceBk != "" {
			rcfg.Backends = splitList(*raceBk)
		}
		if *raceSc != "" {
			rcfg.Scenarios = splitList(*raceSc)
		}
		if *verb {
			rcfg.Progress = os.Stderr
		}
		res, err := exp.RunRace(rcfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		res.Render(os.Stdout)
		f, err := os.Create(*raceJS)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		writeCSV(*csvDir, "race.csv", res.WriteCSV)
		stopProfiles()
		return
	}

	cfg := exp.Full()
	if *quick {
		cfg = exp.Quick()
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *refN > 0 {
		cfg.RefSamples = *refN
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *work
	if *verb {
		cfg.Progress = os.Stderr
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	start := time.Now()
	var table12 *exp.TableResult
	if sel("table12") || sel("fig6") {
		t, err := exp.Table1and2(cfg)
		if err != nil {
			fatal(err)
		}
		table12 = t
	}
	if sel("table12") {
		fmt.Println()
		table12.RenderDeviation(os.Stdout)
		fmt.Println()
		table12.RenderSims(os.Stdout)
		writeCSV(*csvDir, "table12.csv", table12.WriteCSV)
	}
	if sel("table34") {
		t, err := exp.Table3and4(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		t.RenderDeviation(os.Stdout)
		fmt.Println()
		t.RenderSims(os.Stdout)
		writeCSV(*csvDir, "table34.csv", t.WriteCSV)
	}
	if sel("fig3") {
		r, err := exp.RunFig3(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		r.Render(os.Stdout)
		writeCSV(*csvDir, "fig3.csv", r.WriteCSV)
	}
	if sel("fig6") && table12 != nil {
		fmt.Println()
		exp.RenderFig6(table12, os.Stdout)
	}
	if sel("rsb") {
		r, err := exp.RunRSB(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		exp.RenderRSB(r, os.Stdout)
	}
	if sel("pswcd") {
		r, err := exp.RunPSWCD(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		r.Render(os.Stdout)
	}
	if sel("ablation") {
		r, err := exp.RunAblation(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		r.Render(os.Stdout)
	}
	fmt.Fprintf(os.Stderr, "\npaperbench finished in %s\n", time.Since(start).Round(time.Second))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// writeCSV writes one CSV artifact when -csv is set.
func writeCSV(dir, name string, write func(io.Writer) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fatal(err)
	}
}
