package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// Workload shapes. Each constant fixes one property of the inputs; the seed
// only chooses the values inside that shape.
const (
	// optimize: the paper's defaults (pop 50, MaxSims 500) under the
	// equal-simulation-budget protocol: every job may spend optBudget
	// simulations (stall stopping off, a generation cap as a backstop), so
	// jobs do comparable work whatever their seed and a seed group of four
	// jobs takes under a second here.
	optBudget    = 5000
	optGens      = 150
	optMaxSims   = 500
	optRefN      = 4096 // reference MC per returned design (excluded from timing)
	optGroupCost = 0.8  // seconds per seed group, sizes the job list

	// estimate: sample counts sized so each estimate takes about the same
	// time here and spans an even number of chunks (both workers busy to
	// the end).
	estRoundCost = 4.4 // seconds per round of the three scenarios

	// serve: small yield requests; a third repeat an earlier key, half of
	// those from the last serveRecent distinct keys (still cached), half
	// from any earlier key (mostly evicted past the 256-entry cache).
	serveYieldN  = 96
	serveOptFrac = 0.2
	serveRepeat  = 1.0 / 3
	serveRecent  = 64
	serveOptSims = 100
	serveOptGens = 4
	serveRate    = 360 // requests per planned second, sizes the request list

	// fleet: shards of one chunk; every fresh job spans fleetFresh shards
	// and is followed by its extension to fleetFresh+fleetGrow shards, whose
	// first fleetFresh shards are then warm. Every pair costs the same
	// simulations, so the seed changes which samples run, not how many.
	fleetShard       = yieldsim.ChunkSize
	fleetFresh       = 3
	fleetGrow        = 2
	fleetJobCost     = 0.2 // seconds per job, sizes the job list
	fleetSegment     = 2   // jobs per cost segment: a fresh job and its extension
	fleetScenario    = "commonsource-spice"
	serveScenario    = "commonsource-spice"
	serveOptScenario = "foldedcascode"
)

var (
	optScenarios = []string{"foldedcascode", "telescopic"}
	optBackends  = []string{"memetic", "lineasybo"}
	estScenarios = []estScenario{
		{"foldedcascode-spice", 10 * yieldsim.ChunkSize},
		{"commonsource-spice", 20 * yieldsim.ChunkSize},
		{"foldedcascode-tran", 2 * yieldsim.ChunkSize},
	}
)

type estScenario struct {
	name string
	n    int
}

type optJob struct {
	scenario, backend string
	seed              uint64
}

type estOp struct {
	scenario string
	n        int
	seed     uint64
}

type serveOp struct {
	optimize bool
	seed     uint64
	n        int // yield sample count
}

type fleetOp struct {
	seed uint64
	n    int
}

// plan is every input of one pass, derived from the workload seed alone
// (and the run length, which sizes the fixed lists).
type plan struct {
	workload string
	seed     uint64
	seconds  float64 // sizes the fixed lists
	refSeed  uint64  // seed of the optimize reference estimates
	opt      []optJob
	est      []estOp
	serve    []serveOp
	fleet    []fleetOp
}

// newPlan derives the inputs. A probe plan is the short version a traced
// run of another workload uses to measure this workload's layers.
func newPlan(workload string, seed uint64, seconds int, probe bool) *plan {
	secs := float64(seconds)
	if probe {
		secs = 1.5
	}
	pl := &plan{workload: workload, seed: seed, seconds: secs}
	rng := randx.New(randx.DeriveSeed(seed, 0xbe7c4, uint64(len(workload))))
	switch workload {
	case "optimize":
		pl.refSeed = rng.Uint64()
		groups := int(math.Ceil(secs / optGroupCost))
		for g := 0; g < groups; g++ {
			s := rng.Uint64()
			for _, sc := range optScenarios {
				for _, be := range optBackends {
					pl.opt = append(pl.opt, optJob{sc, be, s})
				}
			}
		}
	case "estimate":
		rounds := int(math.Ceil(secs / estRoundCost))
		for r := 0; r < rounds; r++ {
			for _, sc := range estScenarios {
				pl.est = append(pl.est, estOp{sc.name, sc.n, rng.Uint64()})
			}
		}
	case "serve":
		var keys []serveOp
		for i := 0; i < int(secs*serveRate); i++ {
			switch {
			case rng.Float64() < serveOptFrac:
				pl.serve = append(pl.serve, serveOp{optimize: true, seed: rng.Uint64()})
			case len(keys) > 0 && rng.Float64() < serveRepeat:
				lo := 0
				if rng.Intn(2) == 0 {
					lo = max(0, len(keys)-serveRecent)
				}
				pl.serve = append(pl.serve, keys[lo+rng.Intn(len(keys)-lo)])
			default:
				op := serveOp{seed: rng.Uint64(), n: serveYieldN}
				keys = append(keys, op)
				pl.serve = append(pl.serve, op)
			}
		}
	case "fleet":
		for i := 0; i < int(math.Ceil(secs/fleetJobCost/2)); i++ {
			s := rng.Uint64()
			pl.fleet = append(pl.fleet, fleetOp{s, fleetFresh * fleetShard}, fleetOp{s, (fleetFresh + fleetGrow) * fleetShard})
		}
	}
	return pl
}

// print writes the plan so a run can be replayed and compared: short lists
// in full, the long serve plan as its head plus a digest of all of it.
func (pl *plan) print(w io.Writer) {
	fmt.Fprintf(w, "plan workload=%s seed=%d seconds=%g\n", pl.workload, pl.seed, pl.seconds)
	h := fnv.New64a()
	switch pl.workload {
	case "optimize":
		fmt.Fprintf(w, "plan optimize sim_budget=%d gens=%d max_sims=%d ref_n=%d ref_seed=%d jobs=%d\n", optBudget, optGens, optMaxSims, optRefN, pl.refSeed, len(pl.opt))
		for i := 0; i < len(pl.opt); i += len(optScenarios) * len(optBackends) {
			fmt.Fprintf(w, "plan optimize group seed=%d\n", pl.opt[i].seed)
		}
	case "estimate":
		for _, op := range pl.est {
			fmt.Fprintf(w, "plan estimate %s n=%d seed=%d\n", op.scenario, op.n, op.seed)
		}
	case "serve":
		for i, op := range pl.serve {
			fmt.Fprintf(h, "%v/%d/%d;", op.optimize, op.seed, op.n)
			if i < 8 {
				fmt.Fprintf(w, "plan serve[%d] optimize=%v seed=%d n=%d\n", i, op.optimize, op.seed, op.n)
			}
		}
		fmt.Fprintf(w, "plan serve entries=%d digest=%016x\n", len(pl.serve), h.Sum64())
	case "fleet":
		for _, op := range pl.fleet {
			fmt.Fprintf(w, "plan fleet seed=%d n=%d\n", op.seed, op.n)
		}
	}
}
