package main

import (
	"fmt"
	"io"
	"sort"
)

// usPerSample is the circuits layer's busy time per sample on a scenario.
func (l *layers) usPerSample(scenario string) float64 {
	st, ok := l.scen[scenario]
	if !ok || st.samples.Load() == 0 {
		return 0
	}
	return float64(st.busyNS.Load()) / 1e3 / float64(st.samples.Load())
}

// totals sums the circuits record over every wrapped scenario.
func (l *layers) totals() (busyNS, calls, samples, failed, nominal int64) {
	for _, st := range l.scen {
		busyNS += st.busyNS.Load()
		calls += st.calls.Load()
		samples += st.samples.Load()
		failed += st.failed.Load()
		nominal += st.nominal.Load()
	}
	return
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics. Each comes from the traced pass
// of the workload that drives its layer: optimize owns core, lineasybo,
// engine, the behavioural circuits and the circuits call shape; estimate
// owns spice and yieldsim; serve the service; fleet the shard scheduler.
// The ladder supplies the direct calls into the lower layers.
func perLayer(tr map[string]*layers, lad *ladder) map[string]metric {
	opt, est, svc, flt := tr["optimize"], tr["estimate"], tr["serve"], tr["fleet"]
	m := map[string]metric{
		"sparse.k1_real.ns_per_lane":       {lad.k1Real, "ns"},
		"sparse.k8_real.ns_per_lane":       {lad.k8Real, "ns"},
		"sparse.k1_complex.ns_per_lane":    {lad.k1Complex, "ns"},
		"sparse.k8_complex.ns_per_lane":    {lad.k8Complex, "ns"},
		"sparse.scalar_real.ns":            {lad.scalarReal, "ns"},
		"sparse.scalar_complex.ns":         {lad.scalarCplx, "ns"},
		"spice.dc.us":                      {lad.dcUS, "us"},
		"spice.ac.us":                      {lad.acUS, "us"},
		"spice.tran.us":                    {lad.tranUS, "us"},
		"spice.dc_batch8.us_per_lane":      {lad.dc8US, "us"},
		"spice.ac_batch8.us_per_lane":      {lad.ac8US, "us"},
		"sample.lhs.us_per_draw":           {lad.lhsUS, "us"},
		"sample.pmc.us_per_draw":           {lad.pmcUS, "us"},
		"yieldsim.chunkpass.us_per_sample": {lad.chunkUS, "us"},
		"ladder.k8_circuits_speedup":       {ratio(lad.circ1US, lad.circ8US), "x"},
	}

	estSamples := float64(est.refSamples)
	m["spice.newton_iters_per_sample"] = metric{ratio(est.obsDiff["spice_newton_iterations_total"], estSamples), "count"}
	m["spice.factorizations_per_sample"] = metric{ratio(est.obsDiff["spice_factorizations_total"], estSamples), "count"}
	m["spice.lane_occupancy"] = metric{ratio(est.lanesSum, est.lanesCount), "lanes"}
	for _, sc := range estScenarios {
		m["circuits."+sc.name+".us_per_sample"] = metric{est.usPerSample(sc.name), "us"}
	}
	estBusy, _, _, _, _ := est.totals()
	m["yieldsim.self_frac"] = metric{1 - ratio(float64(estBusy)/1e9, est.refWallS*float64(workers)), "ratio"}

	for _, sc := range optScenarios {
		m["circuits."+sc+".us_per_sample"] = metric{opt.usPerSample(sc), "us"}
	}
	busy, calls, samples, failed, nominal := opt.totals()
	m["circuits.batch_mean"] = metric{ratio(float64(samples), float64(calls)), "samples"}
	m["circuits.sample_fail_frac"] = metric{ratio(float64(failed), float64(samples)), "ratio"}
	m["circuits.busy_frac"] = metric{ratio(float64(busy)/1e9, opt.wallS*float64(workers)), "ratio"}
	m["engine.busy_frac"] = metric{ratio(opt.obsDiff["engine_busy_ns_total"]/1e9, opt.wallS*float64(workers)), "ratio"}
	m["engine.tasks_per_gen"] = metric{ratio(opt.obsDiff["engine_tasks_total"], opt.obsDiff["core_generations_total"]), "count"}
	mem, lin := opt.genFor("memetic"), opt.genFor("lineasybo")
	jobs := float64(len(opt.gapPP))
	m["core.gen_ms"] = metric{ratio(mem.wallMS, float64(mem.gens)), "ms"}
	m["core.self_ms_per_gen"] = metric{ratio(mem.selfMS, float64(mem.gens)), "ms"}
	m["core.generations"] = metric{opt.obsDiff["core_generations_total"], "count"}
	m["core.sims_per_gen"] = metric{ratio(float64(mem.sims), float64(mem.gens)), "count"}
	m["core.screen_sims"] = metric{ratio(float64(nominal), jobs), "count"}
	m["core.nm_triggers"] = metric{opt.obsDiff["core_nm_triggers_total"], "count"}
	m["lineasybo.self_ms_per_gen"] = metric{ratio(lin.selfMS, float64(lin.gens)), "ms"}
	m["oo.gap_pp"] = metric{mean(opt.gapPP), "pp"}

	m["service.queue_ms"] = metric{median(svc.svcQueueMS), "ms"}
	m["service.run_ms"] = metric{median(svc.svcRunMS), "ms"}
	m["service.overhead_ms"] = metric{median(svc.svcOverheadMS), "ms"}
	m["service.cache_hit_frac"] = metric{svc.svcHitFrac, "ratio"}
	m["service.coalesced"] = metric{svc.svcCoalesced, "count"}

	m["fleet.shards_per_job"] = metric{ratio(float64(flt.fleetShards), float64(flt.fleetJobs)), "count"}
	m["fleet.warm_shard_frac"] = metric{ratio(float64(flt.fleetWarm), float64(flt.fleetShards)), "ratio"}
	m["fleet.lease_wait_ms"] = metric{flt.fleetLeaseWaitMS, "ms"}
	m["fleet.redispatched"] = metric{flt.fleetRedispatched, "count"}
	m["fleet.worker_shard_frac"] = metric{ratio(float64(flt.fleetWorker), float64(flt.fleetExec)), "ratio"}
	// A shard span runs from enqueue to merge; less its lease wait it is
	// the time a node spent on the shard.
	m["fleet.overhead_frac"] = metric{1 - ratio(flt.fleetShardRunMS-flt.fleetLeaseWaitSumMS, flt.fleetJobRunMS*2), "ratio"}
	return m
}

// overhead prints traced − untraced for every end-to-end metric of the
// workload and adds the relative differences to m, so the wrappers' cost
// is never mistaken for a layer's cost.
func overhead(w io.Writer, workload string, untraced, traced map[string]metric, m map[string]metric) {
	names := make([]string, 0, len(untraced))
	for k := range untraced {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		u, t := untraced[k].Value, traced[k].Value
		pct := 100 * ratio(t-u, u)
		fmt.Fprintf(w, "%s trace overhead %-14s untraced %12.6g traced %12.6g diff %+12.6g %s (%+.2f%%)\n",
			workload, k, u, t, t-u, untraced[k].Unit, pct)
		m["trace.overhead_pct."+k] = metric{pct, "%"}
	}
}
