package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/engine"
	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/service"
	"github.com/eda-go/moheco/internal/spice"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// env is the system under test as set-up leaves it for the pass.
type env struct {
	probs map[string]problem.Problem
	refs  map[string][]float64

	srv       *service.Server // serve: the daemon; fleet: the coordinator
	url       string
	coordReg  *obs.Registry
	workerReg *obs.Registry
	closers   []func()
}

// close tears the system down in reverse order of construction.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

// passStats is one pass's outcome: what the end-to-end metrics are made
// of, plus the outputs still to be checked against in-process references.
type passStats struct {
	attempted, failed int
	wallS             float64 // measured wall time
	cpuS              float64 // process CPU time over the measured operations
	latMS             []float64
	sims              int64 // simulator calls the pass caused
	yields            []float64
	gapPP             []float64           // optimize: |reported − reference| per design
	segs              []segment           // consecutive slices of the pass
	rssMB             []float64           // resident-set samples over the pass
	outputs           map[string]uint64   // output key → float64 bits
	check             func() (int, error) // deferred reference comparison: mismatches
	lines             []string            // workload-named metrics for the report
}

// segment is a consecutive slice of a pass: a seed group, a round, a
// window. Costs are read off the distribution over segments, so a burst
// of noise from outside the process moves them less than it moves a total.
type segment struct {
	ops   int
	sims  int64
	wallS float64
	cpuS  float64
}

func newPassStats() *passStats { return &passStats{outputs: map[string]uint64{}} }

// fail counts one failed operation and says why on standard error.
func (ps *passStats) fail(format string, args ...any) {
	ps.failed++
	fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
}

// verify runs the deferred reference comparisons, once.
func (ps *passStats) verify() error {
	if ps.check == nil {
		return nil
	}
	bad, err := ps.check()
	ps.check = nil
	ps.failed += bad
	return err
}

// closeSegment records everything since the previous segment as one.
func (ps *passStats) closeSegment() {
	var sg segment
	for _, p := range ps.segs {
		sg.ops += p.ops
		sg.sims += p.sims
		sg.wallS += p.wallS
		sg.cpuS += p.cpuS
	}
	ps.segs = append(ps.segs, segment{ps.ops() - sg.ops, ps.sims - sg.sims, ps.wallS - sg.wallS, ps.cpuS - sg.cpuS})
}

func (ps *passStats) ops() int { return ps.attempted - ps.failed }

// endToEnd derives the workload-independent end-to-end metrics. Costs are
// process CPU time, not wall time: on a shared virtual machine the
// hypervisor steals a varying share of the wall clock (a quarter and more
// was measured while building this benchmark), which CPU time excludes.
// Wall-clock latency and throughput are in the report.
func (ps *passStats) endToEnd() map[string]metric {
	var cpuPerOp []float64
	for _, sg := range ps.segs {
		if sg.ops > 0 && sg.cpuS > 0 {
			cpuPerOp = append(cpuPerOp, 1e3*sg.cpuS/float64(sg.ops))
		}
	}
	// The median segment: a burst of interference from outside the process,
	// or a seed whose jobs run unusually short or long, moves a few
	// segments but not the middle one.
	return map[string]metric{
		"cpu_ms_per_op": {median(cpuPerOp), "ms"},
		"sims_per_op":   {float64(ps.sims) / float64(max(ps.ops(), 1)), "count"},
		"yield_pct":     {100 * mean(ps.yields), "%"},
		"rss_mb":        {median(ps.rssMB), "MB"},
	}
}

// wallReport adds the wall-clock view: latency percentiles with their
// sample counts and throughput.
func (ps *passStats) wallReport() {
	n := len(ps.latMS)
	ps.linef("job_p50_ms %.6g ms (%d operations)", quantile(ps.latMS, 0.5), n)
	if n >= 100 {
		ps.linef("job_p90_ms %.6g ms (%d operations, %d beyond)", quantile(ps.latMS, 0.9), n, n/10)
	}
	ps.linef("jobs_per_s %.6g 1/s over %.4g s wall", float64(n)/ps.wallS, ps.wallS)
	ps.linef("samples_per_s %.6g 1/s over %.4g s wall", float64(ps.sims)/ps.wallS, ps.wallS)
	ps.linef("cpu_s %.6g s (%.3g of %d processors busy)", ps.cpuS, ps.cpuS/ps.wallS, runtime.NumCPU())
}

// report prints the workload's own metrics (opt_wall_s, job_p50_ms, …)
// with their sample counts, next to the generic ones.
func (ps *passStats) report(w io.Writer, workload string) {
	for _, l := range ps.lines {
		fmt.Fprintf(w, "%s %s\n", workload, l)
	}
	fmt.Fprintf(w, "%s fail_frac %.6g (%d of %d operations)\n", workload,
		float64(ps.failed)/float64(max(ps.attempted, 1)), ps.failed, ps.attempted)
}

func (ps *passStats) linef(format string, args ...any) {
	ps.lines = append(ps.lines, fmt.Sprintf(format, args...))
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func inUnit(y float64) bool { return y >= 0 && y <= 1 }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// loadScenarios constructs the named scenarios and their reference designs.
func loadScenarios(e *env, names ...string) error {
	e.probs, e.refs = map[string]problem.Problem{}, map[string][]float64{}
	for _, name := range names {
		sc, err := scenario.Get(name)
		if err != nil {
			return err
		}
		p := sc.New()
		x, ok := scenario.ReferenceDesign(p)
		if !ok {
			return fmt.Errorf("scenario %s has no reference design", name)
		}
		if err := problem.CheckDesign(p, x); err != nil {
			return err
		}
		e.probs[name], e.refs[name] = p, x
	}
	return nil
}

// ---------------------------------------------------------------- optimize

func setupOptimize(*plan) (*env, error) {
	e := &env{}
	return e, loadScenarios(e, optScenarios...)
}

func runOptimize(pl *plan, e *env, l *layers) (*passStats, error) {
	ps := newPassStats()
	var refWall float64
	for i, job := range pl.opt {
		if i > 0 && job.seed != pl.opt[i-1].seed {
			ps.closeSegment()
		}
		base := e.probs[job.scenario]
		p := l.wrap(base, job.scenario)
		var ctr yieldsim.Counter
		o := core.DefaultOptions(core.MethodMOHECO, optMaxSims)
		o.Backend = job.backend
		o.Seed = job.seed
		o.MaxGenerations = optGens
		o.StallStop = optGens
		o.SimBudget = optBudget
		o.Workers = workers
		o.Counter = &ctr
		var gs *genStats
		if l != nil {
			gs = l.genFor(job.backend)
			last, lastBusy := time.Now(), l.busyNS()
			o.OnGeneration = func(core.GenRecord) {
				now, busy := time.Now(), l.busyNS()
				wall := float64(now.Sub(last)) / 1e6
				gs.gens++
				gs.wallMS += wall
				gs.selfMS += wall - float64(busy-lastBusy)/1e6/float64(workers)
				last, lastBusy = now, busy
			}
		}
		var before obsSnap
		if l != nil {
			before = readObs(obs.Default())
		}
		t0, c0 := time.Now(), cpuSeconds()
		res, err := core.Optimize(p, o)
		el := time.Since(t0).Seconds()
		ps.cpuS += cpuSeconds() - c0
		if l != nil {
			// Only the optimization's own engine work: the reference
			// estimate below runs on the same pool.
			l.addObs(before, readObs(obs.Default()))
		}
		ps.attempted++
		ps.wallS += el
		if err != nil {
			ps.fail("optimize %s/%s seed %d: %v", job.scenario, job.backend, job.seed, err)
			continue
		}
		ps.latMS = append(ps.latMS, el*1e3)
		ps.sims += res.TotalSims
		if gs != nil {
			gs.sims += res.TotalSims
		}
		switch {
		case res.TotalSims != ctr.Total():
			ps.fail("optimize %s/%s seed %d: TotalSims %d, counter %d", job.scenario, job.backend, job.seed, res.TotalSims, ctr.Total())
			continue
		case !inUnit(res.BestYield):
			ps.fail("optimize %s/%s seed %d: yield %g", job.scenario, job.backend, job.seed, res.BestYield)
			continue
		}
		if err := problem.CheckDesign(base, res.BestX); err != nil {
			ps.fail("optimize %s/%s seed %d: %v", job.scenario, job.backend, job.seed, err)
			continue
		}
		// The reference estimate scores the design; it is not part of the
		// optimization, so it runs unwrapped and outside the timed window.
		var rctr yieldsim.Counter
		r0 := time.Now()
		ref, n, err := yieldsim.ReferenceCtx(context.Background(), base, res.BestX, optRefN, pl.refSeed,
			yieldsim.RefOptions{Workers: workers, Counter: &rctr})
		refWall += time.Since(r0).Seconds()
		switch {
		case err != nil:
			ps.fail("reference %s seed %d: %v", job.scenario, job.seed, err)
			continue
		case n != optRefN || rctr.Total() != optRefN || !inUnit(ref):
			ps.fail("reference %s seed %d: yield %g from %d samples, counter %d", job.scenario, job.seed, ref, n, rctr.Total())
			continue
		}
		key := fmt.Sprintf("%s/%s/%d", job.scenario, job.backend, job.seed)
		ps.outputs[key] = math.Float64bits(res.BestYield) ^ uint64(res.TotalSims)
		ps.yields = append(ps.yields, ref)
		ps.gapPP = append(ps.gapPP, 100*math.Abs(res.BestYield-ref))
	}
	ps.closeSegment()
	if l != nil {
		l.wallS = ps.wallS
		l.gapPP = ps.gapPP
	}
	ps.wallReport()
	ps.linef("opt_wall_s %.6g s (%d jobs, reference estimates excluded: %.3g s)", ps.wallS, len(ps.latMS), refWall)
	ps.linef("opt_sims %d count", ps.sims)
	ps.linef("opt_ref_yield_pct %.6g %%", 100*mean(ps.yields))
	ps.linef("opt_gap_pp %.6g pp (mean over %d designs)", mean(ps.gapPP), len(ps.gapPP))
	return ps, nil
}

func (l *layers) genFor(backend string) *genStats {
	g, ok := l.gen[backend]
	if !ok {
		g = &genStats{}
		l.gen[backend] = g
	}
	return g
}

// ---------------------------------------------------------------- estimate

// setupEstimate constructs the scenarios and runs the engine's symbolic
// analysis on each reference netlist.
func setupEstimate(*plan) (*env, error) {
	e := &env{}
	names := make([]string, len(estScenarios))
	for i, sc := range estScenarios {
		names[i] = sc.name
	}
	if err := loadScenarios(e, names...); err != nil {
		return nil, err
	}
	for _, name := range names {
		sc := scenario.MustGet(name)
		ckt, nodeset, err := sc.Netlist(e.refs[name])
		if err != nil {
			return nil, fmt.Errorf("%s netlist: %w", name, err)
		}
		if _, err := spice.New(ckt, spice.Options{Nodeset: nodeset}); err != nil {
			return nil, fmt.Errorf("%s engine: %w", name, err)
		}
	}
	return e, nil
}

func runEstimate(pl *plan, e *env, l *layers) (*passStats, error) {
	ps := newPassStats()
	before := readObs(obs.Default())
	for i, op := range pl.est {
		if i > 0 && i%len(estScenarios) == 0 {
			ps.closeSegment()
		}
		p := l.wrap(e.probs[op.scenario], op.scenario)
		var ctr yieldsim.Counter
		t0, c0 := time.Now(), cpuSeconds()
		y, n, err := yieldsim.ReferenceCtx(context.Background(), p, e.refs[op.scenario], op.n, op.seed,
			yieldsim.RefOptions{Workers: workers, Counter: &ctr})
		el := time.Since(t0).Seconds()
		ps.cpuS += cpuSeconds() - c0
		ps.attempted++
		ps.wallS += el
		switch {
		case err != nil:
			ps.fail("estimate %s seed %d: %v", op.scenario, op.seed, err)
			continue
		case n != op.n || ctr.Total() != int64(op.n) || !inUnit(y):
			ps.fail("estimate %s seed %d: yield %g from %d samples, counter %d", op.scenario, op.seed, y, n, ctr.Total())
			continue
		}
		ps.latMS = append(ps.latMS, el*1e3)
		ps.sims += int64(n)
		if l != nil {
			rs := l.refScen[op.scenario]
			if rs == nil {
				rs = &refStats{}
				l.refScen[op.scenario] = rs
			}
			rs.wallS += el
			rs.samples += int64(n)
		}
		ps.yields = append(ps.yields, y)
		ps.outputs[fmt.Sprintf("%s/%d/%d", op.scenario, op.n, op.seed)] = math.Float64bits(y)
	}
	ps.closeSegment()
	if l != nil {
		l.addObs(before, readObs(obs.Default()))
		l.refWallS = ps.wallS
		l.refSamples = ps.sims
	}
	ps.wallReport()
	return ps, nil
}

// ---------------------------------------------------------------- servers

// listen serves h on a loopback port and registers its shutdown.
func listen(e *env, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	e.closers = append(e.closers, func() {
		_ = hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// newClient returns a daemon client holding at most one connection.
func newClient(url string) *service.Client {
	c := service.NewClient(url)
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return c
}

// ---------------------------------------------------------------- serve

func setupServe(*plan) (*env, error) {
	e := &env{}
	if err := loadScenarios(e, serveScenario, serveOptScenario); err != nil {
		return nil, err
	}
	// One simulation worker per job: the two job runners then fill the
	// two processors without oversubscribing them.
	e.srv = service.New(service.Config{Workers: 1})
	e.closers = append(e.closers, e.srv.Close)
	url, err := listen(e, e.srv.Handler())
	if err != nil {
		e.close()
		return nil, err
	}
	e.url = url
	if _, err := newClient(url).Health(context.Background()); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

type serveOutcome struct {
	op    serveOp
	st    *service.Status
	latMS float64
	err   error
}

func runServe(pl *plan, e *env, l *layers) (*passStats, error) {
	ps := newPassStats()
	before := readObs(obs.Default())
	sims0 := e.srv.Sims()
	var (
		next atomic.Int64
		mu   sync.Mutex
		outs []serveOutcome
		wg   sync.WaitGroup
	)
	start, cpu0 := time.Now(), cpuSeconds()
	// One-second windows of completions and simulations are the segments.
	var completed atomic.Int64
	stopTicks := make(chan struct{})
	ticksDone := make(chan struct{})
	go func() {
		defer close(ticksDone)
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		last, lastSims, lastDone, lastCPU := start, sims0, int64(0), cpu0
		for {
			select {
			case <-stopTicks:
				return
			case now := <-tk.C:
				s, d, c := e.srv.Sims(), completed.Load(), cpuSeconds()
				ps.segs = append(ps.segs, segment{int(d - lastDone), s - lastSims, now.Sub(last).Seconds(), c - lastCPU})
				last, lastSims, lastDone, lastCPU = now, s, d, c
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(e.url)
			ctx := context.Background()
			for i := int(next.Add(1) - 1); i < len(pl.serve); i = int(next.Add(1) - 1) {
				op := pl.serve[i]
				t0 := time.Now()
				var (
					st  *service.Status
					err error
				)
				if op.optimize {
					st, err = cl.Optimize(ctx, service.OptimizeRequest{Scenario: serveOptScenario,
						MaxSims: serveOptSims, MaxGens: serveOptGens, Seed: service.Seed(op.seed)})
				} else {
					st, err = cl.Yield(ctx, service.YieldRequest{Scenario: serveScenario, N: op.n, Seed: service.Seed(op.seed)})
				}
				lat := float64(time.Since(t0)) / 1e6
				if err == nil {
					completed.Add(1)
				}
				mu.Lock()
				outs = append(outs, serveOutcome{op, st, lat, err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stopTicks)
	<-ticksDone
	ps.wallS = time.Since(start).Seconds()
	ps.cpuS = cpuSeconds() - cpu0
	ps.sims = e.srv.Sims() - sims0
	var queue, run, over []float64
	type optOut struct {
		seed uint64
		res  *service.OptimizeResult
	}
	var yieldsOut []serveOutcome
	var optsOut []optOut
	for _, o := range outs {
		ps.attempted++
		switch {
		case o.err != nil:
			ps.fail("serve seed %d: %v", o.op.seed, o.err)
			continue
		case o.op.optimize && (o.st.Optimize == nil || !inUnit(o.st.Optimize.BestYield)):
			ps.fail("serve optimize seed %d: bad result", o.op.seed)
			continue
		case o.op.optimize && problem.CheckDesign(e.probs[serveOptScenario], o.st.Optimize.BestX) != nil:
			ps.fail("serve optimize seed %d: %v", o.op.seed, problem.CheckDesign(e.probs[serveOptScenario], o.st.Optimize.BestX))
			continue
		case !o.op.optimize && (o.st.Yield == nil || !inUnit(o.st.Yield.Yield)):
			ps.fail("serve yield seed %d: bad result", o.op.seed)
			continue
		}
		ps.latMS = append(ps.latMS, o.latMS)
		if o.op.optimize {
			optsOut = append(optsOut, optOut{o.op.seed, o.st.Optimize})
		} else {
			ps.yields = append(ps.yields, o.st.Yield.Yield)
			yieldsOut = append(yieldsOut, o)
			ps.outputs[fmt.Sprintf("%d/%d", o.op.seed, o.op.n)] = math.Float64bits(o.st.Yield.Yield)
		}
		if t := o.st.Trace; t != nil && !o.st.Cached {
			queue = append(queue, t.QueueMS)
			run = append(run, t.RunMS)
			over = append(over, o.latMS-t.QueueMS-t.RunMS)
		}
	}
	if l != nil {
		d := readObs(obs.Default())
		hits := d.c["service_cache_hits_total"] - before.c["service_cache_hits_total"]
		coal := d.c["service_cache_coalesced_total"] - before.c["service_cache_coalesced_total"]
		miss := d.c["service_cache_misses_total"] - before.c["service_cache_misses_total"]
		l.svcQueueMS, l.svcRunMS, l.svcOverheadMS = queue, run, over
		l.svcHitFrac = hits / math.Max(hits+coal+miss, 1)
		l.svcCoalesced = coal
	}
	ps.wallReport()
	scn, x := e.probs[serveScenario], e.refs[serveScenario]
	ps.check = func() (int, error) {
		// Each distinct key is recomputed once in process and compared bit
		// for bit with every answer the daemon gave for it.
		var keys []serveOp
		seen := map[serveOp]bool{}
		for _, o := range yieldsOut {
			if !seen[o.op] {
				seen[o.op] = true
				keys = append(keys, o.op)
			}
		}
		var optSeeds []uint64
		for _, o := range optsOut {
			if op := (serveOp{optimize: true, seed: o.seed}); !seen[op] {
				seen[op] = true
				optSeeds = append(optSeeds, o.seed)
			}
		}
		want := make([]float64, len(keys))
		wantOpt := make([]*core.Result, len(optSeeds))
		err := engine.ForEachN(workers, len(keys)+len(optSeeds), func(i int) error {
			var err error
			if i < len(keys) {
				want[i], _, err = yieldsim.ReferenceCtx(context.Background(), scn, x, keys[i].n, keys[i].seed, yieldsim.RefOptions{Workers: 1})
				return err
			}
			i -= len(keys)
			opts := core.DefaultOptions(core.MethodMOHECO, serveOptSims)
			opts.Seed = optSeeds[i]
			opts.MaxGenerations = serveOptGens
			opts.Workers = 1
			wantOpt[i], err = core.Optimize(scenario.MustGet(serveOptScenario).New(), opts)
			return err
		})
		if err != nil {
			return 0, err
		}
		byKey := map[serveOp]float64{}
		for i, k := range keys {
			byKey[k] = want[i]
		}
		bySeed := map[uint64]*core.Result{}
		for i, s := range optSeeds {
			bySeed[s] = wantOpt[i]
		}
		bad := 0
		for _, o := range yieldsOut {
			if y := byKey[o.op]; math.Float64bits(y) != math.Float64bits(o.st.Yield.Yield) {
				bad++
				fmt.Fprintf(os.Stderr, "CHECK FAILED: served yield seed %d n %d = %v, in-process %v\n", o.op.seed, o.op.n, o.st.Yield.Yield, y)
			}
		}
		for _, o := range optsOut {
			if r := bySeed[o.seed]; math.Float64bits(r.BestYield) != math.Float64bits(o.res.BestYield) || r.TotalSims != o.res.TotalSims {
				bad++
				fmt.Fprintf(os.Stderr, "CHECK FAILED: served optimize seed %d = (%v, %d sims), in-process (%v, %d sims)\n",
					o.seed, o.res.BestYield, o.res.TotalSims, r.BestYield, r.TotalSims)
			}
		}
		return bad, nil
	}
	return ps, nil
}

// ---------------------------------------------------------------- fleet

// setupFleet starts a self-working coordinator and one worker joined to it
// over loopback, each with one simulation worker, and waits for the join.
func setupFleet(*plan) (*env, error) {
	e := &env{coordReg: obs.NewRegistry(), workerReg: obs.NewRegistry()}
	if err := loadScenarios(e, fleetScenario); err != nil {
		return nil, err
	}
	e.srv = service.New(service.Config{Workers: 1, Metrics: e.coordReg,
		Fleet: service.FleetConfig{Coordinator: true, Node: "coordinator", ShardSamples: fleetShard}})
	e.closers = append(e.closers, e.srv.Close)
	url, err := listen(e, e.srv.Handler())
	if err != nil {
		e.close()
		return nil, err
	}
	e.url = url
	worker := service.New(service.Config{Workers: 1, Metrics: e.workerReg,
		Fleet: service.FleetConfig{Join: url, Node: "worker"}})
	e.closers = append(e.closers, worker.Close)
	for wait := time.Now(); e.srv.Fleet().Peers < 1; time.Sleep(time.Millisecond) {
		if time.Since(wait) > 10*time.Second {
			e.close()
			return nil, errors.New("worker did not join the coordinator")
		}
	}
	return e, nil
}

// fleetHealthCounters must not move in a healthy run.
var fleetHealthCounters = []string{
	`fleet_shards_redispatched_total`,
	`fleet_shards_completed_total{result="stale"}`,
	`fleet_shards_completed_total{result="failed"}`,
	`fleet_replication_failures_total`,
}

func runFleet(pl *plan, e *env, l *layers) (*passStats, error) {
	ps := newPassStats()
	cBefore, wBefore := readObs(e.coordReg), readObs(e.workerReg)
	lwBefore := e.coordReg.Snapshot().Histograms["fleet_shard_lease_wait_seconds"]
	sims0 := e.srv.Sims()
	cl := newClient(e.url)
	ctx := context.Background()
	type out struct {
		op fleetOp
		y  float64
	}
	var outs []out
	start, cpu0 := time.Now(), cpuSeconds()
	for i, op := range pl.fleet {
		if i > 0 && i%fleetSegment == 0 {
			ps.wallS, ps.cpuS = time.Since(start).Seconds(), cpuSeconds()-cpu0
			ps.sims = e.srv.Sims() - sims0
			ps.closeSegment()
		}
		t0 := time.Now()
		st, err := cl.Yield(ctx, service.YieldRequest{Scenario: fleetScenario, N: op.n, Seed: service.Seed(op.seed)})
		lat := float64(time.Since(t0)) / 1e6
		ps.attempted++
		switch {
		case err != nil:
			ps.fail("fleet seed %d n %d: %v", op.seed, op.n, err)
			continue
		case st.Yield == nil || !inUnit(st.Yield.Yield):
			ps.fail("fleet seed %d n %d: bad result", op.seed, op.n)
			continue
		}
		ps.latMS = append(ps.latMS, lat)
		ps.yields = append(ps.yields, st.Yield.Yield)
		outs = append(outs, out{op, st.Yield.Yield})
		ps.outputs[fmt.Sprintf("%d/%d", op.seed, op.n)] = math.Float64bits(st.Yield.Yield)
		if l != nil {
			if err := l.fleetTrace(ctx, e.url, st.ID); err != nil {
				return nil, err
			}
		}
	}
	ps.wallS, ps.cpuS = time.Since(start).Seconds(), cpuSeconds()-cpu0
	ps.sims = e.srv.Sims() - sims0
	ps.closeSegment()
	cAfter, wAfter := readObs(e.coordReg), readObs(e.workerReg)
	for _, k := range fleetHealthCounters {
		if d := int(cAfter.c[k] - cBefore.c[k] + wAfter.c[k] - wBefore.c[k]); d > 0 {
			ps.failed += d
			fmt.Fprintf(os.Stderr, "CHECK FAILED: %s rose by %d in a healthy fleet run\n", k, d)
		}
	}
	if l != nil {
		lw := e.coordReg.Snapshot().Histograms["fleet_shard_lease_wait_seconds"]
		l.fleetLeaseWaitSumMS = 1e3 * (lw.Sum - lwBefore.Sum)
		l.fleetLeaseWaitMS = l.fleetLeaseWaitSumMS / math.Max(float64(lw.Count-lwBefore.Count), 1)
		l.fleetRedispatched = cAfter.c["fleet_shards_redispatched_total"] - cBefore.c["fleet_shards_redispatched_total"]
	}
	ps.wallReport()
	scn, x := e.probs[fleetScenario], e.refs[fleetScenario]
	ps.check = func() (int, error) {
		// Every n is a whole number of chunks, and full chunks depend only
		// on (seed, chunk index), so one ChunkPass over a seed's largest n
		// gives every smaller n of that seed as a prefix: MergePass over
		// the first n/ChunkSize counts is exactly ReferenceCtx(seed, n).
		nmax := map[uint64]int{}
		for _, o := range outs {
			nmax[o.op.seed] = max(nmax[o.op.seed], o.op.n)
		}
		seeds := make([]uint64, 0, len(nmax))
		for s := range nmax {
			seeds = append(seeds, s)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		counts := map[uint64][]int{}
		for _, s := range seeds {
			c, err := yieldsim.ChunkPass(context.Background(), scn, x, nmax[s], s, 0, yieldsim.NumChunks(nmax[s]), yieldsim.RefOptions{Workers: workers})
			if err != nil {
				return 0, err
			}
			counts[s] = c
		}
		bad := 0
		for _, o := range outs {
			want := yieldsim.MergePass(counts[o.op.seed][:yieldsim.NumChunks(o.op.n)], o.op.n)
			if math.Float64bits(want) != math.Float64bits(o.y) {
				bad++
				fmt.Fprintf(os.Stderr, "CHECK FAILED: fleet yield seed %d n %d = %v, in-process %v\n", o.op.seed, o.op.n, o.y, want)
			}
		}
		return bad, nil
	}
	return ps, nil
}

// fleetTrace folds one job's span record into the fleet layer figures.
func (l *layers) fleetTrace(ctx context.Context, url, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req) // traced passes only
	if err != nil {
		return fmt.Errorf("fetching trace of %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching trace of %s: %s", id, resp.Status)
	}
	var v obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return fmt.Errorf("decoding trace of %s: %w", id, err)
	}
	l.fleetJobs++
	for _, sp := range v.Spans {
		switch sp.Name {
		case "run":
			l.fleetJobRunMS += sp.DurationMS
		case "shard":
			l.fleetShards++
			if sp.Attrs["cached"] == "true" {
				l.fleetWarm++
				continue
			}
			l.fleetExec++
			l.fleetShardRunMS += sp.DurationMS
			if sp.Node == "worker" {
				l.fleetWorker++
			}
		}
	}
	return nil
}

// sameOutputs checks that the traced pass reproduced every output the
// untraced pass also produced: the wrappers must not change a single bit.
func sameOutputs(a, b *passStats) error {
	for k, v := range a.outputs {
		if w, ok := b.outputs[k]; ok && w != v {
			return fmt.Errorf("output %s differs", k)
		}
	}
	return nil
}
