// Command perfbench is the repository's benchmark. It runs one of four
// closed-loop workloads against the library's and the daemon's public entry
// points, checks every operation's output, and prints one JSON result line.
//
//	perfbench --workload optimize|estimate|serve|fleet --seed N --seconds S --trace 0|1
//
// The untraced run (--trace 0) reports the end-to-end metrics. The traced
// run (--trace 1) replays the same workload once untraced and once through
// benchmark-owned wrappers around each layer, runs short traced probes of
// the workloads that own the layers this one does not drive, adds a ladder
// of direct calls into the lower layers, and reports the per-layer metrics
// plus the tracing overhead (traced − untraced). The program under test
// receives only the generated inputs: seed lists and request plans derived
// from --seed. perfbench/run.sh builds it from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	_ "github.com/eda-go/moheco/internal/circuits"  // register the scenarios
	_ "github.com/eda-go/moheco/internal/lineasybo" // register the BO backend
)

// Stamped by run.sh: the git commit when built inside a repository, and a
// digest of the module's sources, so results from different code are never
// compared by mistake.
var (
	commit       = "unknown"
	sourceDigest = "unknown"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workers is the simulation-worker bound: one process, at most nproc
// workers; clients is the serve workload's connection count.
var (
	workers = min(2, runtime.NumCPU())
	clients = 2
)

type workload struct {
	name string
	// setup builds the system the pass needs before its first timed
	// operation.
	setup func(pl *plan) (*env, error)
	// run executes one pass of the workload's plan. A traced pass (l
	// non-nil) wraps the layers it drives and fills l.
	run func(pl *plan, e *env, l *layers) (*passStats, error)
}

func main() {
	name := flag.String("workload", "", "optimize | estimate | serve | fleet")
	seed := flag.Uint64("seed", 1, "workload seed: every input is derived from it")
	seconds := flag.Int("seconds", 10, "target length of one measured pass")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	w, ok := workloads()[*name]
	if !ok {
		fatalf("unknown --workload %q (optimize | estimate | serve | fleet)", *name)
	}
	stamp()
	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = runUntraced(w, *seed, *seconds)
	} else {
		res, err = runTraced(w, *seed, *seconds)
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	printMetrics(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

func workloads() map[string]workload {
	return map[string]workload{
		"optimize": {name: "optimize", run: runOptimize, setup: setupOptimize},
		"estimate": {name: "estimate", run: runEstimate, setup: setupEstimate},
		"serve":    {name: "serve", run: runServe, setup: setupServe},
		"fleet":    {name: "fleet", run: runFleet, setup: setupFleet},
	}
}

// setupReps is how many times set-up is timed; setup_s is the median. Each
// timing repeats set-up and teardown in batches of at least setupBatch
// until setupMin has passed and keeps the median batch's time per set-up,
// so a set-up of microseconds is still timed far above the clock's
// resolution, and a garbage collection or an interrupt landing in one
// batch does not move the figure.
const (
	setupReps  = 7
	setupMin   = 30 * time.Millisecond
	setupBatch = 200 * time.Microsecond
)

// timedSetup times the workload's set-up and returns the median seconds
// per set-up plus a live system for the pass.
func timedSetup(w workload, pl *plan) (float64, *env, error) {
	once := func() error {
		e, err := w.setup(pl)
		if err != nil {
			return err
		}
		e.close()
		return nil
	}
	t0 := time.Now()
	if err := once(); err != nil {
		return 0, nil, err
	}
	batch := max(1, int(setupBatch/max(time.Since(t0), time.Nanosecond)))
	var per []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var batches []float64
		for t0 := time.Now(); len(batches) == 0 || time.Since(t0) < setupMin; {
			b0 := time.Now()
			for j := 0; j < batch; j++ {
				if err := once(); err != nil {
					return 0, nil, err
				}
			}
			batches = append(batches, time.Since(b0).Seconds()/float64(batch))
		}
		per = append(per, median(batches))
	}
	e, err := w.setup(pl)
	return median(per), e, err
}

func runUntraced(w workload, seed uint64, seconds int) (*result, error) {
	pl := newPlan(w.name, seed, seconds, false)
	pl.print(os.Stderr)
	setupS, e, err := timedSetup(w, pl)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ps, err := measure(w, pl, e, nil)
	e.close()
	if err != nil {
		return nil, err
	}
	if err := ps.verify(); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	ps.report(os.Stdout, w.name)
	m := ps.endToEnd()
	m["setup_s"] = metric{setupS, "s"}
	fmt.Printf("%s peak_rss_mb %.6g MB\n", w.name, peakRSSMB())
	return &result{Correct: ps.failed == 0, Attempted: ps.attempted, Failed: ps.failed, Metrics: m}, nil
}

func runTraced(w workload, seed uint64, seconds int) (*result, error) {
	pl := newPlan(w.name, seed, seconds, false)
	pl.print(os.Stderr)
	all := workloads()

	// The same plan twice on fresh set-ups: untraced, then traced. Serve
	// and fleet need the fresh set-up — their caches would otherwise
	// answer the second pass.
	var passes [2]*passStats
	var lay [2]*layers
	for i := range passes {
		e, err := w.setup(pl)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i == 1 {
			lay[i] = newLayers()
		}
		passes[i], err = measure(w, pl, e, lay[i])
		e.close()
		if err != nil {
			return nil, err
		}
	}
	total := &passStats{}
	for _, ps := range passes {
		if err := ps.verify(); err != nil {
			return nil, fmt.Errorf("verification: %w", err)
		}
		total.attempted += ps.attempted
		total.failed += ps.failed
	}
	if err := sameOutputs(passes[0], passes[1]); err != nil {
		total.failed++
		fmt.Fprintf(os.Stderr, "CHECK FAILED: traced pass changed an output: %v\n", err)
	}
	traced := map[string]*layers{w.name: lay[1]}
	// Short traced probes of the workloads owning the layers this one does
	// not drive, so every per-layer metric is measured in every traced run.
	for _, other := range []string{"optimize", "estimate", "serve", "fleet"} {
		if other == w.name {
			continue
		}
		ow := all[other]
		ppl := newPlan(other, seed, seconds, true)
		e, err := ow.setup(ppl)
		if err != nil {
			return nil, fmt.Errorf("%s probe setup: %w", other, err)
		}
		l := newLayers()
		ps, err := ow.run(ppl, e, l)
		e.close()
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", other, err)
		}
		if err := ps.verify(); err != nil {
			return nil, fmt.Errorf("%s probe verification: %w", other, err)
		}
		total.attempted += ps.attempted
		total.failed += ps.failed
		traced[other] = l
	}
	lad, err := runLadder(seed)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	m := perLayer(traced, lad)
	overhead(os.Stdout, w.name, passes[0].endToEnd(), passes[1].endToEnd(), m)
	ladderReport(os.Stdout, traced, lad)
	return &result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: m}, nil
}

// stamp prints the run configuration so numbers from different machines or
// configurations are never compared by mistake.
func stamp() {
	fmt.Printf("stamp nproc=%d gomaxprocs=%d workers=%d clients=%d go=%s commit=%s source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, clients, runtime.Version(), commit, sourceDigest)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-44s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// measure runs one pass while sampling the resident set every 100ms.
func measure(w workload, pl *plan, e *env, l *layers) (*passStats, error) {
	stop, done := make(chan struct{}), make(chan struct{})
	var rss []float64
	go func() {
		defer close(done)
		tk := time.NewTicker(100 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				rss = append(rss, statusMB("VmRSS:"))
			}
		}
	}()
	ps, err := w.run(pl, e, l)
	close(stop)
	<-done
	if ps != nil {
		ps.rssMB = rss
	}
	return ps, err
}

func peakRSSMB() float64 { return statusMB("VmHWM:") }

// statusMB reads one kB field of /proc/self/status in MB (0 if absent).
func statusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field) {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, field)), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
